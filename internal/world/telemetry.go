package world

import "seedscan/internal/telemetry"

// worldTele holds the counter handles the reply path bumps, resolved once
// by New so the per-batch hot path never touches the registry's maps.
type worldTele struct {
	batches      *telemetry.Counter // world.batches
	batchPackets *telemetry.Counter // world.batch.packets
	batchReplies *telemetry.Counter // world.batch.replies
	groupsMat    *telemetry.Counter // world.groups_materialized
}
