package netaddr_test

import (
	"fmt"

	"wormhole/internal/netaddr"
)

func ExampleParsePrefix() {
	p := netaddr.MustParsePrefix("10.2.4.7/30")
	fmt.Println(p) // canonicalized
	fmt.Println(p.Contains(netaddr.MustParseAddr("10.2.4.6")))
	fmt.Println(p.Nth(1))
	// Output:
	// 10.2.4.4/30
	// true
	// 10.2.4.5
}

func ExampleTrie_LookupPrefix() {
	var fib netaddr.Trie[string]
	fib.Insert(netaddr.MustParsePrefix("10.0.0.0/8"), "aggregate")
	fib.Insert(netaddr.MustParsePrefix("10.2.0.0/16"), "customer")
	p, v, _ := fib.LookupPrefix(netaddr.MustParseAddr("10.2.9.1"))
	fmt.Println(p, v) // longest prefix wins
	// Output:
	// 10.2.0.0/16 customer
}
