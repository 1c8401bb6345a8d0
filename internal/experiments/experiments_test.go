package experiments

import (
	"math"
	"strings"
	"testing"
)

// These tests assert the *shape* claims of each reproduced figure — the
// ratios, orderings and convergence points the paper's evaluation rests
// on. fig1 (the FIFO half of fig13's application suite) has no shape
// test of its own; CI's fairness job runs it through `benchrun -exp all`.

func metricsOf(t *testing.T, r *Result) map[string]float64 {
	t.Helper()
	if r.Metrics == nil {
		t.Fatalf("%s: no metrics", r.ID)
	}
	return r.Metrics
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"capacity", "fig1", "fig7", "fig8a", "fig8b", "fig8c",
		"fig9", "fig10", "fig12", "fig13", "fig14", "ablation", "metadata",
		"stageout", "rebalance", "policyswap"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for i, id := range want {
		if Registry[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, Registry[i].ID, id)
		}
		if Lookup(id) == nil {
			t.Fatalf("Lookup(%s) failed", id)
		}
	}
	if Lookup("nope") != nil {
		t.Fatal("Lookup of unknown id should be nil")
	}
}

func TestCapacityEnvelope(t *testing.T) {
	m := metricsOf(t, Capacity())
	if m["write_gbps"] < 11 || m["write_gbps"] > 12.5 {
		t.Fatalf("write = %.1f GB/s, want ~11.7", m["write_gbps"])
	}
	if m["read_gbps"] < 11 || m["read_gbps"] > 12.5 {
		t.Fatalf("read = %.1f GB/s, want ~11.7", m["read_gbps"])
	}
	if m["combined_gbps"] < 20.5 || m["combined_gbps"] > 23 {
		t.Fatalf("combined = %.1f GB/s, want ~22", m["combined_gbps"])
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 sweeps up to 128 servers, ~18s")
	}
	m := metricsOf(t, Fig7())
	if d := m["n1_read_gbps"]/11.7 - 1; d < -0.02 || d > 0.02 {
		t.Fatalf("1 server reads %.2f GB/s, want 11.7 ± 2%%", m["n1_read_gbps"])
	}
	if m["n8_eff"] < 0.80 || m["n8_eff"] > 0.84 {
		t.Fatalf("8-server efficiency = %.3f, want 0.82 ± 0.02 (paper 82%%)", m["n8_eff"])
	}
	if m["n128_eff"] < 0.63 || m["n128_eff"] > 0.69 {
		t.Fatalf("128-server efficiency = %.3f, want 0.66 ± 0.03 (paper 68%%)", m["n128_eff"])
	}
}

func TestFig8aShape(t *testing.T) {
	m := metricsOf(t, Fig8a())
	if m["ratio"] < 3.6 || m["ratio"] > 4.4 {
		t.Fatalf("size-fair ratio = %.2f, want ~4 (paper 3.96)", m["ratio"])
	}
	if m["alone_gbps"] < 20 {
		t.Fatalf("unopposed = %.1f GB/s, want ~22", m["alone_gbps"])
	}
	if tot := m["job1_gbps"] + m["job2_gbps"]; tot < 20 {
		t.Fatalf("sharing total = %.1f GB/s — utilization lost", tot)
	}
}

func TestFig8bShape(t *testing.T) {
	m := metricsOf(t, Fig8b())
	if m["ratio"] < 0.9 || m["ratio"] > 1.15 {
		t.Fatalf("job-fair ratio = %.2f, want ~1", m["ratio"])
	}
}

func TestFig8cShape(t *testing.T) {
	m := metricsOf(t, Fig8c())
	diff := m["userA_gbps"] / m["userB_gbps"]
	if diff < 0.9 || diff > 1.15 {
		t.Fatalf("user-fair user split = %.2f, want ~1 (paper 10.85 vs 10.80)", diff)
	}
}

func TestFig9Shape(t *testing.T) {
	m := metricsOf(t, Fig9())
	if r := m["user1_gbps"] / m["user2_gbps"]; r < 0.9 || r > 1.1 {
		t.Fatalf("user split = %.2f, want ~1", r)
	}
	if m["u1_ratio"] < 1.8 || m["u1_ratio"] > 2.2 {
		t.Fatalf("user1 within ratio = %.2f, want ~2 (1:2 nodes)", m["u1_ratio"])
	}
	if m["u2_ratio"] < 1.3 || m["u2_ratio"] > 1.7 {
		t.Fatalf("user2 within ratio = %.2f, want ~1.5 (4:6 nodes)", m["u2_ratio"])
	}
}

func TestFig10Shape(t *testing.T) {
	m := metricsOf(t, Fig10())
	if m["group1_share"] < 0.45 || m["group1_share"] > 0.55 {
		t.Fatalf("group1 share = %.2f, want ~0.5", m["group1_share"])
	}
	for _, u := range []string{"u2", "u3", "u4"} {
		s := m["user_"+u+"_share"]
		if s < 0.13 || s > 0.21 {
			t.Fatalf("user %s share = %.3f, want ~1/6", u, s)
		}
	}
	if m["total_gbps"] < 18 {
		t.Fatalf("total = %.1f GB/s, want ~20", m["total_gbps"])
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig12 sweep takes ~3s")
	}
	m := metricsOf(t, Fig12())
	// ThemisIO sustains a double-digit peak advantage over both.
	if m["peak_gain_vs_gift_pct"] < 8 || m["peak_gain_vs_gift_pct"] > 20 {
		t.Fatalf("gain vs GIFT = %.1f%%, paper 13.5%%", m["peak_gain_vs_gift_pct"])
	}
	if m["peak_gain_vs_tbf_pct"] < 8 || m["peak_gain_vs_tbf_pct"] > 20 {
		t.Fatalf("gain vs TBF = %.1f%%, paper 13.7%%", m["peak_gain_vs_tbf_pct"])
	}
	// Variance ordering: ThemisIO < GIFT < TBF (paper 504 < 626 < 845).
	if !(m["themisio_sigma_mbps"] < m["gift_sigma_mbps"] &&
		m["gift_sigma_mbps"] < m["tbf_sigma_mbps"]) {
		t.Fatalf("σ ordering broken: %v / %v / %v",
			m["themisio_sigma_mbps"], m["gift_sigma_mbps"], m["tbf_sigma_mbps"])
	}
	// Equidistributed tokens leave no sampling noise in a saturated share
	// (independent draws gave 149 MB/s here).
	if m["themisio_sigma_mbps"] > 20 {
		t.Fatalf("σ(themisio) = %.1f MB/s, want <= 20", m["themisio_sigma_mbps"])
	}
}

// The application study is the experiment most sensitive to when the
// controller compiles: an application's I/O phases are short, so a
// controller that admits a job only at the λ tick hands most of each
// phase to the background job (compiling on the tick alone, size-fair
// removed 4 % of BERT's FIFO slowdown and made SPECFEM3D's worse).
func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig13 runs six applications three times each, ~90s")
	}
	m := metricsOf(t, Fig13())
	for _, app := range []string{"NAMD", "WRF", "BERT", "SPECFEM3D", "ResNet-50", "ResNet-50-sync"} {
		fifo, fair := m[app+"_fifo_pct"], m[app+"_fair_pct"]
		if fifo <= 0 {
			t.Fatalf("%s: FIFO slowdown %+.1f%%, want the background job to hurt", app, fifo)
		}
		if red := (1 - fair/fifo) * 100; red < 85 {
			t.Errorf("%s: size-fair removes %.1f%% of the FIFO slowdown (%+.1f%% → %+.1f%%), want >= 85%%", app, red, fifo, fair)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	m := metricsOf(t, Fig14())
	// All λ converge; larger λ converge by the 2nd interval.
	for _, k := range []string{"l200_converge_interval", "l500_converge_interval"} {
		if m[k] < 1 || m[k] > 2 {
			t.Fatalf("%s = %v, want <= 2", k, m[k])
		}
	}
	if m["l10_converge_interval"] < 3 {
		t.Fatalf("λ=10ms converged at interval %v; the paper needs 5 (control-plane bound)", m["l10_converge_interval"])
	}
	// Once converged the share is flat at every λ. (The paper's "shorter
	// λ → higher share variance" was the sampling noise of independent
	// draws over a shorter window; the token sequence has none.)
	for _, k := range []string{"l10_share_sigma", "l50_share_sigma", "l200_share_sigma", "l500_share_sigma"} {
		if s, ok := m[k]; !ok || s > 0.01 {
			t.Fatalf("%s = %v, want <= 0.01", k, s)
		}
	}
}

func TestAblationShape(t *testing.T) {
	m := metricsOf(t, Ablation())
	if m["opp_total_gbps"] < 1.5*m["strict_total_gbps"] {
		t.Fatalf("opportunity fairness should roughly double utilization here: %v vs %v",
			m["opp_total_gbps"], m["strict_total_gbps"])
	}
	if m["wide_share_deweighted"] >= m["wide_share_raw"] {
		t.Fatal("presence deweighting should shrink the wide job's per-server share")
	}
}

func TestMetadataIsolationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("metadata-storm scenario takes ~20s")
	}
	m := metricsOf(t, Metadata())
	if m["fair_victim_gbps"] < 3*m["fifo_victim_gbps"] {
		t.Fatalf("job-fair should rescue the victim's data path: %.2f vs %.2f GB/s",
			m["fair_victim_gbps"], m["fifo_victim_gbps"])
	}
	if m["fifo_storm_ops"] < 0.5e6 {
		t.Fatalf("storm should saturate the IOPS envelope under FIFO: %.0f ops/s", m["fifo_storm_ops"])
	}
}

func TestStageOutShareTracksPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("stage-out sharing scenario takes ~15s")
	}
	m := metricsOf(t, StageOut())
	if s := m["sizefair_drain_share"]; math.Abs(s-0.25) > 0.005 {
		t.Fatalf("size-fair drain share = %.4f, want 0.25±0.005", s)
	}
	if s := m["jobfair_drain_share"]; math.Abs(s-0.50) > 0.005 {
		t.Fatalf("job-fair drain share = %.4f, want 0.50±0.005", s)
	}
	if m["sizefair_fg_gbps"] < 7 {
		t.Fatalf("foreground under size-fair = %.1f GB/s, drain must not starve it", m["sizefair_fg_gbps"])
	}
}

// TestFairnessGate is the CI fairness gate: the policy hot-swap
// sweeps (steady baseline, mid-flood swap, swap during rebalance,
// straggler member) must show every entity's measured serviced-byte
// share within ±0.02 of its compiled token share at window close. This
// runs in -short too — it IS the CI job — and turns EXPERIMENTS.md
// claims like 0.249-vs-0.25 into an enforced invariant instead of
// prose. The contract is ±0.02; what the token sequence delivers is
// ±0.0001, and the gate also fails at ±0.002 — a change that brings
// back √N sampling noise or bends the conditioned split is caught an
// order of magnitude inside the contract.
func TestFairnessGate(t *testing.T) {
	const tolerance, sharp = 0.02, 0.002
	m := metricsOf(t, PolicySwap())
	checked := 0
	for k, v := range m {
		if !strings.HasSuffix(k, "_residual") {
			continue
		}
		checked++
		switch {
		case math.Abs(v) > tolerance:
			t.Errorf("%s = %+.4f, exceeds ±%.2f fairness gate", k, v, tolerance)
		case math.Abs(v) > sharp:
			t.Errorf("%s = %+.4f: inside the ±%.2f contract but past the ±%.3f the token sequence guarantees", k, v, tolerance, sharp)
		default:
			t.Logf("%s = %+.4f (within ±%.3f)", k, v, sharp)
		}
	}
	if checked < 8 {
		t.Fatalf("gate checked only %d residual metrics; the sweep shrank", checked)
	}
}

// The rebalance experiment's sharing assertion lives with the
// acceptance test (TestRebalanceShareTracksPolicy in
// internal/cluster/rebalance_test.go, ±0.002 tolerance) —
// running the same ~15s simulation twice bought nothing.

func TestRenderIncludesPaperReference(t *testing.T) {
	res := Capacity()
	out := res.Render()
	if !strings.Contains(out, "paper reports") || !strings.Contains(out, "GB/s") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}
