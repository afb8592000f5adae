package dsim

import (
	"fmt"
	"sort"

	"nexsim/internal/accel"
	"nexsim/internal/accel/devkit"
	"nexsim/internal/checkpoint"
	"nexsim/internal/mem"
	"nexsim/internal/vclock"
)

// Checkpointing: a DSim device's dynamic state is its clock, its task
// bookkeeping, the un-replayed tail of each tagged DMA FIFO, and the
// embedded LPN's marking. Queue tags are a map, so they are serialized
// in sorted order; drained prefixes (head > 0) are dropped so two
// devices with equal pending work encode identically regardless of how
// many tasks already churned through. The payload recycling pool is
// scratch, not state, and is never serialized.

// SnapshotTo serializes the device's dynamic state.
func (b *Base) SnapshotTo(enc *checkpoint.Encoder) {
	life := b.Bank.Lifecycle()
	enc.String(b.Name())
	enc.I64(int64(b.now))
	enc.I64(int64(life.BusyStart))
	enc.Int(life.InFlight)
	enc.I64(life.Stats.TasksStarted)
	enc.I64(life.Stats.TasksCompleted)
	enc.I64(int64(life.Stats.BusyTime))
	enc.I64(life.Stats.DMABytes)
	enc.I64(life.Stats.HostSteps)

	tags := make([]string, 0, len(b.queues))
	for tag, q := range b.queues {
		if q.head < len(q.recs) {
			tags = append(tags, tag)
		}
	}
	sort.Strings(tags)
	enc.Int(len(tags))
	for _, tag := range tags {
		q := b.queues[tag]
		enc.String(tag)
		enc.Int(len(q.recs) - q.head)
		for _, rec := range q.recs[q.head:] {
			enc.U8(uint8(rec.Kind))
			enc.U64(uint64(rec.Addr))
			enc.Int(rec.Size)
			if rec.Kind == mem.Write && rec.Data != nil {
				enc.Bool(true)
				enc.Bytes8(rec.Data)
			} else {
				enc.Bool(false)
			}
		}
	}

	b.Net.SnapshotTo(enc)
}

// RestoreFrom overwrites the device's dynamic state from a snapshot
// taken on an identically constructed device (same name, same LPN
// structure). Existing queue contents are discarded.
func (b *Base) RestoreFrom(dec *checkpoint.Decoder) error {
	name := dec.String()
	now := vclock.Time(dec.I64())
	busyStart := vclock.Time(dec.I64())
	inFlight := dec.Int()
	var stats [5]int64
	for i := range stats {
		stats[i] = dec.I64()
	}
	nTags := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if name != b.Name() {
		return fmt.Errorf("dsim: restore of device %q into %q", name, b.Name())
	}
	if inFlight < 0 || nTags < 0 || nTags > 1<<16 {
		return fmt.Errorf("%w: dsim %s: inFlight %d, %d tags", checkpoint.ErrCorrupt, b.Name(), inFlight, nTags)
	}
	queues := make(map[string]*dmaQueue, nTags)
	prevTag := ""
	for i := 0; i < nTags; i++ {
		tag := dec.String()
		nRecs := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		if i > 0 && tag <= prevTag {
			return fmt.Errorf("%w: dsim %s: queue tags out of order", checkpoint.ErrCorrupt, b.Name())
		}
		prevTag = tag
		if nRecs <= 0 || nRecs > 1<<24 {
			return fmt.Errorf("%w: dsim %s: %d records for tag %q", checkpoint.ErrCorrupt, b.Name(), nRecs, tag)
		}
		recs := make([]DMARec, nRecs)
		for j := range recs {
			recs[j].Kind = mem.AccessKind(dec.U8())
			recs[j].Addr = mem.Addr(dec.U64())
			recs[j].Size = dec.Int()
			if dec.Bool() {
				recs[j].Data = dec.Bytes8()
			}
			if err := dec.Err(); err != nil {
				return err
			}
		}
		queues[tag] = &dmaQueue{recs: recs}
	}
	if err := b.Net.RestoreFrom(dec); err != nil {
		return err
	}

	b.now = now
	b.Bank.SetLifecycle(devkit.Lifecycle{BusyStart: busyStart, InFlight: inFlight, Stats: accel.DeviceStats{
		TasksStarted: stats[0], TasksCompleted: stats[1], BusyTime: vclock.Duration(stats[2]),
		DMABytes: stats[3], HostSteps: stats[4],
	}})
	b.queues = queues
	return nil
}
