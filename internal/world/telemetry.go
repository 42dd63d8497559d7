package world

import "seedscan/internal/telemetry"

// worldTele holds the counter handles the reply path bumps, resolved once
// so the per-batch hot path never touches the registry's maps.
type worldTele struct {
	batches      *telemetry.Counter // world.batches
	batchPackets *telemetry.Counter // world.batch.packets
	batchReplies *telemetry.Counter // world.batch.replies
	groupsMat    *telemetry.Counter // world.groups_materialized
}

// SetTelemetry wires reg into the world's reply path. Counters:
//
//	world.batches              handleBatch calls served
//	world.batch.packets        probes received across batches
//	world.batch.replies        replies emitted across batches
//	world.groups_materialized  AS region groups built on demand
//
// Passing nil unwires telemetry. Safe to call concurrently with in-flight
// handleBatch calls (the handle set swaps atomically).
func (w *World) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		w.tele.Store(nil)
		return
	}
	w.tele.Store(&worldTele{
		batches:      reg.Counter("world.batches"),
		batchPackets: reg.Counter("world.batch.packets"),
		batchReplies: reg.Counter("world.batch.replies"),
		groupsMat:    reg.Counter("world.groups_materialized"),
	})
}
