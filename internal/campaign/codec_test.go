package campaign

// The worker frames' codec is written by hand, field by field. These
// tests pin that it drops nothing: every struct that crosses the wire
// round-trips with every exported field set, and a distributed
// campaign's records equal the in-process engine's, field for field.

import (
	"fmt"
	"reflect"
	"testing"

	"wormhole/internal/fingerprint"
	"wormhole/internal/packet"
	"wormhole/internal/probe"
	"wormhole/internal/reveal"
)

// filler sets every exported field it reaches to a non-zero value,
// distinct across the first 250 fields, so a field the codec forgets
// decodes as zero and a field it swaps with another decodes wrong. Enum
// fields take their largest valid value, and a label stack entry a valid
// label, traffic class and bottom-of-stack flag.
type filler struct {
	t *testing.T
	n uint64
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	x := f.n%250 + 1
	switch v.Type() {
	case reflect.TypeOf(probe.Method(0)):
		v.Set(reflect.ValueOf(probe.UDPParis))
		return
	case reflect.TypeOf(reveal.Technique(0)):
		v.Set(reflect.ValueOf(reveal.TechHybrid))
		return
	case reflect.TypeOf(fingerprint.Class(0)):
		v.Set(reflect.ValueOf(fingerprint.LegacyLike))
		return
	case reflect.TypeOf(packet.LSE{}):
		v.Set(reflect.ValueOf(packet.LSE{Label: uint32(x) << 8, TC: 5, Bottom: true, TTL: uint8(x)}))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(x))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(x)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(x) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprint("s", x))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	default:
		f.t.Fatalf("filler cannot set a %s", v.Type())
	}
}

// roundTrip fills a T, encodes it with put into a frame, decodes it with
// get and requires the two to be equal.
func roundTrip[T any](t *testing.T, put func(*frameWriter, T), get func(*frameReader) T) {
	t.Helper()
	var want, got T
	(&filler{t: t}).fill(reflect.ValueOf(&want).Elem())
	body := sectionBody(func(f *frameWriter) { put(f, want) })
	if err := decodeBody(msgHello, body, func(d *frameReader) { got = get(d) }); err != nil {
		t.Fatalf("%T: %v", want, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%T does not round-trip:\n got %+v\nwant %+v", want, got, want)
	}
}

// TestFrameCodecRoundTrip runs every struct that crosses the worker wire
// through its encoder and decoder. It fails as soon as a field is added
// to one of them and not to the codec. The hello is the exception: it
// carries the six Config fields a worker reads, in 20 bytes, and no
// other.
func TestFrameCodecRoundTrip(t *testing.T) {
	var cfg Config
	(&filler{t: t}).fill(reflect.ValueOf(&cfg).Elem())
	body := sectionBody(func(f *frameWriter) { f.hello(cfg) })
	var got Config
	if err := decodeBody(msgHello, body, func(d *frameReader) { got = d.hello() }); err != nil {
		t.Fatalf("hello: %v", err)
	}
	want := Config{
		FirstTTL:         cfg.FirstTTL,
		Method:           cfg.Method,
		DisableFlowCache: cfg.DisableFlowCache,
		ChurnFlushWorld:  cfg.ChurnFlushWorld,
		ChurnRate:        cfg.ChurnRate,
		ChurnSeed:        cfg.ChurnSeed,
	}
	if got != want || len(body) != 20 {
		t.Errorf("hello of %d bytes decodes to %+v, want 20 bytes decoding to %+v", len(body), got, want)
	}

	roundTrip(t, (*frameWriter).job, (*frameReader).job)
	roundTrip(t, (*frameWriter).shard, (*frameReader).shard)
	roundTrip(t, (*frameWriter).node, (*frameReader).node)
	roundTrip(t, (*frameWriter).counters, (*frameReader).counters)
	roundTrip(t, (*frameWriter).shardStats, (*frameReader).shardStats)
	roundTrip(t, (*frameWriter).slotDone, (*frameReader).slotDone)
	roundTrip(t, (*frameWriter).trace, (*frameReader).trace)
	roundTrip(t, (*frameWriter).link, (*frameReader).link)
	roundTrip(t, (*frameWriter).revelation, (*frameReader).revelation)
	roundTrip(t, (*frameWriter).fingerprint, (*frameReader).fingerprint)
}

// TestDistributedRecordsMatchInProcess pins the wire's fidelity beyond
// the dataset: every record a 2-worker distributed campaign merges —
// trace hops with their full label stack entries, candidate, candidate
// AS, egress echo TTL and revelation — equals RunParallel's, field for
// field, static and churned, and so do the fingerprints. A dataset
// writes only each entry's label and TTL, so byte-identical datasets
// would hide a lost traffic class or bottom-of-stack flag.
func TestDistributedRecordsMatchInProcess(t *testing.T) {
	in := testInternet(t, 101)
	for _, churn := range []float64{0, 2} {
		cfg := DefaultConfig()
		cfg.ChurnRate, cfg.ChurnSeed = churn, 42
		want, err := RunParallel(in, cfg, ParallelConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := runGoroutineWorkers(t, in, cfg, 2)
		if len(got.Records) != len(want.Records) || len(want.Records) == 0 {
			t.Fatalf("churn %v: %d distributed records, %d in-process", churn, len(got.Records), len(want.Records))
		}
		differ := 0
		for i, w := range want.Records {
			g := *got.Records[i]
			if g.VP != w.VP {
				t.Fatalf("churn %v: record %d from another vantage point", churn, i)
			}
			if !reflect.DeepEqual(g, *w) {
				if differ == 0 {
					t.Errorf("churn %v: record %d (to %s) differs:\n got %+v\nwant %+v", churn, i, w.Trace.Dst, g.Trace, w.Trace)
				}
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("churn %v: %d of %d records differ", churn, differ, len(want.Records))
		}
		if !reflect.DeepEqual(got.Fingerprints, want.Fingerprints) {
			t.Errorf("churn %v: fingerprints differ", churn)
		}
	}
}
