package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// run executes a command line and returns (exit code, stdout, stderr).
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := Main(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageOnNoArgs(t *testing.T) {
	code, _, stderr := run(t)
	if code != 2 || !strings.Contains(stderr, "commands:") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, stderr := run(t, "frobnicate")
	if code != 2 || !strings.Contains(stderr, "unknown command") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestHelp(t *testing.T) {
	code, stdout, _ := run(t, "help")
	if code != 0 || !strings.Contains(stdout, "emulate") {
		t.Errorf("code=%d stdout=%q", code, stdout)
	}
}

func TestEmulateDefault(t *testing.T) {
	code, stdout, stderr := run(t, "emulate", "-scenario", "backward-recursive")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	for _, want := range []string{"10.12.0.2", "[254]", "revelation", "BRPR", "hidden hop 1: 10.2.1.2"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestEmulateBadScenario(t *testing.T) {
	code, _, stderr := run(t, "emulate", "-scenario", "nope")
	if code != 1 || !strings.Contains(stderr, "unknown scenario") {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestEmulateExplicitTarget(t *testing.T) {
	code, stdout, _ := run(t, "emulate", "-scenario", "default", "-target", "10.2.4.2", "-reveal=false")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(stdout, "MPLS Label") {
		t.Errorf("explicit tunnel trace lacks labels:\n%s", stdout)
	}
}

func TestTNTCommand(t *testing.T) {
	code, stdout, _ := run(t, "tnt")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	for _, want := range []string{"trigger:frpla", "path length 7"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

func TestFingerprintCommand(t *testing.T) {
	code, stdout, _ := run(t, "fingerprint", "-scenario", "default")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(stdout, "<255,255>") || !strings.Contains(stdout, "cisco") {
		t.Errorf("fingerprint output wrong:\n%s", stdout)
	}
}

func TestCampaignSaveAndAnalyze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.jsonl")
	code, stdout, stderr := run(t, "campaign", "-scale", "small", "-seed", "7", "-out", path)
	if code != 0 {
		t.Fatalf("campaign: code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "revelations:") || !strings.Contains(stdout, "phases: replica ") ||
		!strings.Contains(stdout, "dataset saved") {
		t.Errorf("campaign output:\n%s", stdout)
	}
	code, stdout, stderr = run(t, "analyze", path)
	if code != 0 {
		t.Fatalf("analyze: code=%d stderr=%q", code, stderr)
	}
	for _, want := range []string{"observed graph:", "trace length", "fingerprint classes"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("analyze output missing %q:\n%s", want, stdout)
		}
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	code, _, stderr := run(t, "analyze", "/nonexistent/file.jsonl")
	if code != 1 || stderr == "" {
		t.Errorf("code=%d stderr=%q", code, stderr)
	}
}

func TestExperimentsSubset(t *testing.T) {
	code, stdout, stderr := run(t, "experiments", "-scale", "small", "table1", "fig4")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	for _, want := range []string{"TABLE1", "FIG4", "shape check"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(stdout, "TABLE5") {
		t.Error("unselected experiment ran")
	}
}

func TestGraphCommand(t *testing.T) {
	dir := t.TempDir()
	before := filepath.Join(dir, "b.dot")
	after := filepath.Join(dir, "a.dot")
	code, stdout, stderr := run(t, "graph", "-scale", "small", "-seed", "7",
		"-before", before, "-after", after)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "invisible:") || !strings.Contains(stdout, "revealed:") {
		t.Errorf("stdout = %q", stdout)
	}
	for _, p := range []string{before, after} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "graph") || !strings.Contains(string(b), "--") {
			t.Errorf("%s does not look like DOT", p)
		}
	}
}

func TestExperimentsMarkdownReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	code, _, stderr := run(t, "experiments", "-scale", "small", "-md", path, "table1", "fig4")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(b)
	for _, want := range []string{"# Regenerated evaluation", "## TABLE1", "## FIG4", "**shape:**", "0 shape checks failed"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestMultiSeedCampaign(t *testing.T) {
	code, stdout, stderr := run(t, "campaign", "-seeds", "2", "-seed", "300")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	for _, want := range []string{"300", "301", "pooled forward tunnel length"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q", want)
		}
	}
}

// TestMultiSeedCampaignSettings: every world of a multi-seed run probes
// with the command line's method, cache and churn settings, so its row
// reports the probes of the same single-world campaign; flags that name
// one world's dataset or one engine are refused, by name.
func TestMultiSeedCampaignSettings(t *testing.T) {
	settings := []string{"-method", "udp", "-churn", "2", "-no-flow-cache"}
	code, single, stderr := run(t, append([]string{"campaign", "-seed", "301"}, settings...)...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	m := regexp.MustCompile(`probes sent: (\d+)`).FindStringSubmatch(single)
	if m == nil {
		t.Fatalf("single-world campaign printed no probe count:\n%s", single)
	}
	code, multi, stderr := run(t, append([]string{"campaign", "-seeds", "2", "-seed", "300"}, settings...)...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	row := regexp.MustCompile(`(?m)^301 +\d+ +\d+ +\d+ +\d+ +(\d+) `).FindStringSubmatch(multi)
	if row == nil || row[1] != m[1] {
		t.Errorf("seed 301's row does not report the single-world campaign's %s probes:\n%s", m[1], multi)
	}

	out := filepath.Join(t.TempDir(), "ds.jsonl")
	for _, flag := range [][]string{{"-out", out}, {"-workers", "2"}, {"-dist", "2"}} {
		code, _, stderr := run(t, append([]string{"campaign", "-seeds", "2"}, flag...)...)
		if code == 0 || !strings.Contains(stderr, flag[0]+" ") {
			t.Errorf("-seeds 2 %s: code=%d stderr=%q, want an error naming %s", strings.Join(flag, " "), code, stderr, flag[0])
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("a refused multi-seed run wrote a dataset")
	}
}

func TestCampaignChurnFlags(t *testing.T) {
	code, stdout, stderr := run(t, "campaign", "-scale", "small", "-seed", "7", "-churn", "2")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "churn: rate 2 seed 7,") {
		t.Errorf("stats line missing churn rate/seed (churn-seed should default to the generator seed):\n%s", stdout)
	}
	if !strings.Contains(stdout, "events fired") || !strings.Contains(stdout, "delta-invalidation") {
		t.Errorf("stats line missing event count or invalidation mode:\n%s", stdout)
	}

	code, stdout, stderr = run(t, "campaign", "-scale", "small", "-seed", "7",
		"-churn", "2", "-churn-seed", "99", "-churn-flush-world")
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stdout, "seed 99") || !strings.Contains(stdout, "flush-world") {
		t.Errorf("explicit churn seed or flush-world mode not reported:\n%s", stdout)
	}

	// Static default: no churn line at all.
	code, stdout, _ = run(t, "campaign", "-scale", "small", "-seed", "7")
	if code != 0 || strings.Contains(stdout, "churn:") {
		t.Errorf("code=%d; static campaign printed a churn line:\n%s", code, stdout)
	}
}
