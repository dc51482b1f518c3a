package campaign_test

// Distributed-engine contracts: the multi-process campaign is
// byte-identical to the serial engine at every worker count, and a worker
// dying mid-campaign yields a typed error — promptly, with partial
// results discarded — never a hang or a corrupted merge. Workers here are
// goroutines driving the real socket protocol; the check.sh smoke
// exercises true OS processes through the CLI.

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"wormhole/internal/campaign"
	"wormhole/internal/experiments"
	"wormhole/internal/gen"
	"wormhole/internal/tracefile"
)

func distWorld(t *testing.T) *gen.Internet {
	t.Helper()
	p := gen.DefaultParams(404)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 4, 8, 4
	p.MPLSFrac, p.NoPropagateFrac, p.UHPFrac = 1.0, 0.8, 0
	in, err := gen.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// goSpawn launches in-process workers that dial the coordinator's socket
// and run the full ServeWorker protocol.
func goSpawn(i int, network, addr string) error {
	go func() {
		conn, err := net.Dial(network, addr)
		if err != nil {
			return
		}
		_ = campaign.ServeWorker(conn)
	}()
	return nil
}

// datasetBytes renders the full campaign output — records, candidates,
// revelations, fingerprints — to its canonical serialized form.
func datasetBytes(t *testing.T, c *campaign.Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, c.Dataset("golden")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runDist(t *testing.T, in *gen.Internet, cfg campaign.Config, workers int) *campaign.Campaign {
	t.Helper()
	c, err := campaign.RunDistributed(in, cfg, campaign.DistConfig{Workers: workers, Spawn: goSpawn})
	if err != nil {
		t.Fatalf("distributed run (workers=%d): %v", workers, err)
	}
	return c
}

// TestDistributedGolden pins the headline contract: 1, 2, and 4 worker
// processes produce the byte-identical dataset the serial engine
// produces, and bill their slot set-up (encode, spawn, join, world
// shipping) to Phase.Replica.
func TestDistributedGolden(t *testing.T) {
	in := distWorld(t)
	cfg := campaign.DefaultConfig()
	serial := campaign.Run(in, cfg)
	want := datasetBytes(t, serial)
	if len(serial.Records) == 0 {
		t.Fatal("serial campaign produced no records")
	}
	for _, workers := range []int{1, 2, 4} {
		c := runDist(t, in, cfg, workers)
		if got := datasetBytes(t, c); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: dataset diverges from serial", workers)
		}
		if c.Probes != serial.Probes {
			t.Errorf("workers=%d: probes %d, serial %d", workers, c.Probes, serial.Probes)
		}
		if len(c.Shards) != len(serial.Shards) {
			t.Errorf("workers=%d: %d shards, serial %d", workers, len(c.Shards), len(serial.Shards))
		}
		if c.Workers != workers {
			t.Errorf("Workers = %d, want %d", c.Workers, workers)
		}
		if c.Phase.Replica <= 0 {
			t.Errorf("workers=%d: slot set-up not billed to Phase.Replica", workers)
		}
	}
}

// TestDistributedChurn runs the dynamic-topology engine through the
// distributed path: each worker compiles the symbolic churn plan against
// its own replica, and the merged output still matches serial.
func TestDistributedChurn(t *testing.T) {
	in := distWorld(t)
	cfg := campaign.DefaultConfig()
	cfg.ChurnRate = 1.5
	cfg.ChurnSeed = 99
	serial := campaign.Run(in, cfg)
	want := datasetBytes(t, serial)
	c := runDist(t, in, cfg, 2)
	if got := datasetBytes(t, c); !bytes.Equal(got, want) {
		t.Fatal("churned distributed dataset diverges from serial")
	}
	if serial.ChurnEvents == 0 {
		t.Skip("seed fired no churn events")
	}
	if c.ChurnEvents != serial.ChurnEvents {
		t.Errorf("churn events %d, serial %d", c.ChurnEvents, serial.ChurnEvents)
	}
}

// TestDistributedStream runs the streamed (Feistel) bootstrap scheduler
// distributed: the coordinator enumerates the accepted job sequence
// without probing and the partitioned replay matches serial.
func TestDistributedStream(t *testing.T) {
	in := distWorld(t)
	cfg := campaign.DefaultConfig()
	cfg.Stream = true
	cfg.MaxBootstrapTargets = 48
	cfg.PrefixBudget = 6
	cfg.MaxTargets = 40
	serial := campaign.Run(in, cfg)
	want := datasetBytes(t, serial)
	for _, workers := range []int{2, 3} {
		c := runDist(t, in, cfg, workers)
		if got := datasetBytes(t, c); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: streamed distributed dataset diverges from serial", workers)
		}
	}
}

// TestDistributedLargeGolden is the acceptance pin at the Large rung:
// a 2-worker distributed campaign over a Unix socket, flow cache on,
// byte-identical to serial.
func TestDistributedLargeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier")
	}
	in, err := gen.Build(experiments.Large.Params(2024))
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Large.CampaignConfig()
	serial := campaign.Run(in, cfg)
	want := datasetBytes(t, serial)
	c := runDist(t, in, cfg, 2)
	if got := datasetBytes(t, c); !bytes.Equal(got, want) {
		t.Fatal("Large distributed dataset diverges from serial")
	}
}

// TestDistributedWorkerDeath pins the failure contract: a worker that
// dies mid-protocol produces a typed *WorkerError promptly, the partial
// campaign is discarded (nil result), and the coordinator never hangs.
func TestDistributedWorkerDeath(t *testing.T) {
	in := distWorld(t)
	cfg := campaign.DefaultConfig()
	spawn := func(i int, network, addr string) error {
		go func() {
			conn, err := net.Dial(network, addr)
			if err != nil {
				return
			}
			if i == 1 {
				// Read the session opening, then die mid-bootstrap: the
				// coordinator is owed this worker's traces and must fail
				// over EOF, not hang.
				buf := make([]byte, 4096)
				conn.Read(buf)
				time.Sleep(10 * time.Millisecond)
				conn.Close()
				return
			}
			_ = campaign.ServeWorker(conn)
		}()
		return nil
	}
	done := make(chan struct{})
	var c *campaign.Campaign
	var err error
	go func() {
		c, err = campaign.RunDistributed(in, cfg, campaign.DistConfig{
			Workers:     2,
			Spawn:       spawn,
			StepTimeout: 30 * time.Second,
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("coordinator hung after worker death")
	}
	if err == nil {
		t.Fatal("worker death produced no error")
	}
	var we *campaign.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorkerError, got %T: %v", err, err)
	}
	// Worker slots are assigned in accept order, which need not match
	// spawn order — the blamed slot just has to be a real one.
	if we.Worker < 0 || we.Worker > 1 {
		t.Errorf("blamed worker %d, want 0 or 1", we.Worker)
	}
	if c != nil {
		t.Error("partial campaign returned alongside error")
	}

	// The fabric is still usable: a follow-up serial campaign completes
	// and a fresh distributed run succeeds (no corrupted shared state).
	if after := campaign.Run(in, cfg); len(after.Records) == 0 {
		t.Error("fabric unusable after worker death")
	}
	if _, err := campaign.RunDistributed(in, cfg, campaign.DistConfig{Workers: 2, Spawn: goSpawn}); err != nil {
		t.Errorf("retry after worker death failed: %v", err)
	}
}

// TestDistributedSpawnRequired pins the config contract.
func TestDistributedSpawnRequired(t *testing.T) {
	in := distWorld(t)
	if _, err := campaign.RunDistributed(in, campaign.DefaultConfig(), campaign.DistConfig{Workers: 2}); err == nil {
		t.Fatal("nil Spawn accepted")
	}
}
