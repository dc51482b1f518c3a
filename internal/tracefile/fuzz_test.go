package tracefile_test

import (
	"bytes"
	"testing"

	"wormhole/internal/campaign"
	"wormhole/internal/gen"
	"wormhole/internal/tracefile"
)

// smallRungSeed writes a trimmed dataset of a Small-rung campaign: the
// header, the first records with and without a revelation, and a few
// fingerprints, so every line kind the reader decodes is present.
func smallRungSeed(f *testing.F) []byte {
	f.Helper()
	p := gen.DefaultParams(2024)
	p.NumTier1, p.NumTransit, p.NumStub, p.NumVPs = 2, 5, 10, 5 // the Small rung
	in, err := gen.Build(p)
	if err != nil {
		f.Fatal(err)
	}
	full := campaign.Run(in, campaign.DefaultConfig()).Dataset("fuzz seed")
	ds := tracefile.NewDataset(full.Header.Comment)
	plain, revealed := false, false
	for _, rec := range full.Records {
		switch {
		case rec.Revelation != nil && len(rec.Revelation.Hops) > 0 && !revealed:
			revealed = true
		case rec.Revelation == nil && !plain:
			plain = true
		default:
			continue
		}
		ds.Records = append(ds.Records, rec)
	}
	ds.Fingerprints = full.Fingerprints[:min(3, len(full.Fingerprints))]
	var buf bytes.Buffer
	if err := tracefile.Write(&buf, ds); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTracefileRead fuzzes the JSONL reader behind `wormhole analyze`,
// the decoder of dataset files from outside the process. Read must either
// fail with an error or return a dataset whose every trace converts back
// through ToTrace, as analyze converts it, without a panic; the
// conversion may still reject a malformed field with its own error.
func FuzzTracefileRead(f *testing.F) {
	f.Add(smallRungSeed(f))
	f.Add([]byte(`{"header":{"format":1,"tool":"wormhole"}}`))
	f.Add([]byte(`{"header":{"format":1}}` + "\n" + `{"record":{"trace":{"src":"10.0.0.1","dst":"10.0.0.2","hops":[{"probe_ttl":2,"icmp_type":11,"labels":[{"label":16,"ttl":1}]}]},"revelation":{"ingress":"10.0.0.1","egress":"10.0.0.2","technique":"DPR","steps":[3]}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := tracefile.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, rec := range ds.Records {
			if tr, err := rec.Trace.ToTrace(); err == nil && len(tr.Hops) != len(rec.Trace.Hops) {
				t.Fatalf("ToTrace kept %d of %d hops", len(tr.Hops), len(rec.Trace.Hops))
			}
		}
	})
}
