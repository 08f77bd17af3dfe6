package experiments

import "testing"

// Each test runs one paper-experiment harness in Quick mode and checks the
// qualitative shape claims against the paper. The heavier timelines are
// skipped under -short.

// harness is what every experiment result provides.
type harness interface {
	Render() string
	ShapeHolds() error
}

// checkShape runs one harness in Quick mode with seed, logs its rendering,
// and fails t unless it ran and its shape holds. A non-empty slow skips the
// run under -short, giving slow as the reason.
func checkShape[R harness](t *testing.T, run func(Options) (R, error), seed int64, slow string) {
	t.Helper()
	if slow != "" && testing.Short() {
		t.Skip(slow)
	}
	res, err := run(Options{Quick: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.ShapeHolds(); err != nil {
		t.Fatal(err)
	}
}

func TestFig7DynamicConsistency(t *testing.T) {
	checkShape(t, Fig7, 1, "fig7 timeline takes ~25s")
}

func TestSLOSwitch(t *testing.T) {
	checkShape(t, SLOSwitch, 9, "sloswitch timeline takes ~25s")
}

func TestFig8Table3ChangePrimary(t *testing.T) {
	checkShape(t, Fig8Table3, 2, "fig8 waves take ~30s")
}

func TestFig9TierLatency(t *testing.T) {
	checkShape(t, Fig9, 0, "")
}

func TestTable4Pricing(t *testing.T) {
	checkShape(t, func(Options) (*Table4Result, error) { return Table4() }, 0, "")
}

func TestSec53ColdDataSavings(t *testing.T) {
	checkShape(t, Sec53ColdData, 0, "")
}

func TestFig10CentralizedTier(t *testing.T) {
	checkShape(t, Fig10, 0, "")
}

func TestFig11SysBenchIOPS(t *testing.T) {
	checkShape(t, Fig11, 3, "fig11 sweep takes ~15s")
}

func TestFig12RUBiSThroughput(t *testing.T) {
	checkShape(t, Fig12, 4, "fig12 sweep takes ~90s")
}

func TestConvergenceAntiEntropy(t *testing.T) {
	checkShape(t, Convergence, 8, "convergence partition/heal run takes ~20s")
}

func TestAblationConsistency(t *testing.T) {
	checkShape(t, AblationConsistency, 5, "")
}

func TestBatchFlush(t *testing.T) {
	checkShape(t, BatchFlush, 8, "")
}

func TestAblationQueue(t *testing.T) {
	checkShape(t, AblationQueue, 6, "")
}

func TestAblationBlockSize(t *testing.T) {
	checkShape(t, AblationBlockSize, 7, "block size sweep takes ~15s")
}

func TestScaleoutSharding(t *testing.T) {
	checkShape(t, Scaleout, 1, "")
}
