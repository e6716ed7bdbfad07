package harness

import (
	"testing"

	"repro/internal/arch"
)

func TestTrialsAblationNeverWorseWithPrefixSeeds(t *testing.T) {
	pts, err := TrialsAblation(arch.RigettiAspen4(), 5, 300, []int{1, 8}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points=%d", len(pts))
	}
	// Trials with the same base seed are prefix-extensions: 8 trials can
	// only match or beat 1 trial.
	if pts[1].MeanRatio > pts[0].MeanRatio {
		t.Errorf("more trials got worse: %.2f -> %.2f", pts[0].MeanRatio, pts[1].MeanRatio)
	}
}
