package workload

// hpmtel instrumentation for the staged campaign engine. The handles are
// package-level so the hot paths pay only the atomic update, never a
// registry lookup; everything registers into telemetry.Default, the
// process-wide registry the CLIs dump and rs2hpmd serves. Updates are
// observation only — no metric feeds back into simulated state, so the
// golden campaign hash is identical with telemetry on or off.

import "repro/internal/telemetry"

var (
	// The simulate stage (engine.go): bulk state advancement.
	telEngine    = telemetry.Default.Scope("workload.engine")
	telAdvanced  = telEngine.Counter("jobs_advanced")
	telSampled   = telEngine.Counter("nodes_sampled")
	telAdvanceNs = telEngine.Histogram("advance_ns", telemetry.DurationBuckets)
	telSampleNs  = telEngine.Histogram("sample_ns", telemetry.DurationBuckets)

	// The campaign lifecycle (workload.go): generate → simulate → reduce.
	telCampaign   = telemetry.Default.Scope("workload.campaign")
	telDays       = telCampaign.Counter("days")
	telTicks      = telCampaign.Counter("ticks")
	telGenerateNs = telCampaign.Histogram("generate_ns", telemetry.DurationBuckets)
	telTickNs     = telCampaign.Histogram("tick_ns", telemetry.DurationBuckets)
	telReduceNs   = telCampaign.Histogram("reduce_ns", telemetry.DurationBuckets)

	// The fault layer's per-day sampling fates, folded in at day close
	// from the coverage ledger (one batched Add per fate per day, not one
	// atomic op per node per tick).
	telFaults           = telemetry.Default.Scope("workload.faults")
	telFateCaptured     = telFaults.Counter("captured")
	telFateDropped      = telFaults.Counter("dropped")
	telFateDown         = telFaults.Counter("down")
	telFateRebased      = telFaults.Counter("rebased")
	telFateDuplicates   = telFaults.Counter("duplicates")
	telFaultResets      = telFaults.Counter("resets")
	telDelayedEpilogues = telFaults.Counter("delayed_epilogues")
)

// addLedger folds one non-negative int64 ledger entry into a counter.
func addLedger(c *telemetry.Counter, v int64) {
	if v > 0 {
		c.Add(uint64(v))
	}
}
