// Smoke tests that build and run every example binary, guarding them
// against bit-rot. They exec the go toolchain, so they are skipped in
// -short mode.
package wormhole

import (
	"os/exec"
	"strings"
	"testing"
)

func runExample(t *testing.T, dir string, wants ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("examples need the go toolchain")
	}
	out, err := exec.Command("go", "run", "./examples/"+dir).CombinedOutput()
	if err != nil {
		t.Fatalf("example %s failed: %v\n%s", dir, err, out)
	}
	for _, want := range wants {
		if !strings.Contains(string(out), want) {
			t.Errorf("example %s output missing %q:\n%s", dir, want, out)
		}
	}
}

func TestExampleQuickstart(t *testing.T) {
	runExample(t, "quickstart", "revealed via BRPR", "hidden LSR 3: 10.2.3.2", "asymmetry +3")
}

func TestExampleGNS3Lab(t *testing.T) {
	runExample(t, "gns3lab",
		"MPLS Label", "[247]", // Fig. 4a
		"(d) UHP: totally invisible")
}

func TestExampleRTLA(t *testing.T) {
	runExample(t, "rtla", "<255,64>", "RTLA matched the revealed tunnel length exactly")
}

func TestExampleTNT(t *testing.T) {
	runExample(t, "tnt", "trigger:frpla", "trigger:rtla", "stays dark")
}

func TestExampleAnomaly(t *testing.T) {
	runExample(t, "anomaly", "attribution=invisible-tunnel", "hidden LSRs")
}

func TestExampleCampaign(t *testing.T) {
	runExample(t, "campaign", "revelations:", "graph correction:", "ground truth:")
}
