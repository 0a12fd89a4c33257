package dtmsvs

import (
	"reflect"
	"testing"

	"dtmsvs/internal/vecmath"
)

// kernelVariants enumerates the dispatch settings the determinism
// sweep compares. On hardware without AVX2 both variants run the
// generic kernel, which degenerates to the plain parallelism sweep —
// still a valid (if weaker) pass, so the test never skips.
var kernelVariants = []struct {
	name    string
	generic bool
}{
	{"dispatched", false},
	{"generic", true},
}

// TestRunDeterministicAcrossKernelsAndParallelism is the acceptance
// gate for the SIMD GEMM kernels and the pooled per-user stages at the
// monolithic engine's trace level: for a fixed seed, the full trace — grouping
// decisions, predictions, cache and QoE metrics, all downstream of
// the trained CNN and DDQN weights — must be bit-identical across
// {AVX2 dispatch, forced-generic} × Parallelism {1, 4, 8}.
func TestRunDeterministicAcrossKernelsAndParallelism(t *testing.T) {
	if vecmath.CPU().AVX2 {
		t.Logf("sweeping with AVX2 kernels available: %+v", vecmath.CPU())
	}
	defer vecmath.ForceGeneric(false)
	var base *Trace
	for _, kv := range kernelVariants {
		vecmath.ForceGeneric(kv.generic)
		for _, workers := range []int{1, 4, 8} {
			cfg := smallConfig(7)
			cfg.Parallelism = workers
			tr := mustTrace(t, cfg)
			if base == nil {
				base = tr
				continue
			}
			if !reflect.DeepEqual(tr.Records, base.Records) {
				t.Fatalf("%s workers=%d: trace records diverged from dispatched w=1", kv.name, workers)
			}
			if tr.K != base.K || tr.Silhouette != base.Silhouette || tr.CacheHitRate != base.CacheHitRate {
				t.Fatalf("%s workers=%d: run stats diverged: K %d/%d sil %v/%v cache %v/%v",
					kv.name, workers, tr.K, base.K, tr.Silhouette, base.Silhouette,
					tr.CacheHitRate, base.CacheHitRate)
			}
		}
	}
}

// TestClusterDeterministicAcrossKernels extends the kernel sweep to
// the one-cell-per-station engine: per-cell training pipelines, trained
// concurrently on the shared pool, must produce a bit-identical merged trace with the
// generic and dispatched kernels at several worker counts.
func TestClusterDeterministicAcrossKernels(t *testing.T) {
	defer vecmath.ForceGeneric(false)
	cfg := ClusterConfig{Sim: smallConfig(11)}
	cfg.Sim.NumUsers = 48
	var base *ClusterTrace
	for _, kv := range kernelVariants {
		vecmath.ForceGeneric(kv.generic)
		for _, workers := range []int{1, 4} {
			c := cfg
			c.Sim.Parallelism = workers
			tr := mustClusterTrace(t, c)
			if base == nil {
				base = tr
				continue
			}
			if !reflect.DeepEqual(tr.Records, base.Records) {
				t.Fatalf("%s workers=%d: cluster records diverged", kv.name, workers)
			}
			if tr.Handovers != base.Handovers || tr.CacheHitRate != base.CacheHitRate {
				t.Fatalf("%s workers=%d: cluster stats diverged", kv.name, workers)
			}
		}
	}
}
