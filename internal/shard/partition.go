package shard

import (
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/gate"
	"repro/internal/plasma"
)

// PartitionWeighted deterministically splits a fault list into one index
// group per entry of weights for sharded grading. It reuses the
// cone-aware, activation-sorted pass packing of internal/fault — shards
// receive contiguous runs of the packing order, so the cache-friendly
// grouping (faults of one pass share fanout-cone regions and activation
// windows) largely survives the split — and balances the shards by host
// capacity with a longest-processing-time greedy: dispatch units in
// descending order of the width policy's cost estimate, each to the
// shard minimizing (load+cost)/weight, i.e. the one that would finish its
// assignment soonest if it processes cost at `weight` units per second.
// Weights <= 0 count as 1 (so a zero-filled slice is the uniform split),
// only ratios matter, and ties go to the lowest shard index — the
// partition is a pure function of (plan, weights), deterministic across
// coordinator runs.
//
// A dispatch unit is a whole pass group when the plan has enough of them,
// but a group whose estimated cost exceeds a shard's fair share is split
// into contiguous sub-ranges first. At 64-word lanes one pass carries up
// to 4096 faulty machines, so a modest sample often plans as a single
// group; handing out whole passes would then serialize the cluster on one
// host. Each worker re-packs its fault subset into full passes locally
// (workers run PlanPasses over what they receive), so splitting costs at
// most a few partially-filled passes, not lost pass structure.
//
// Never-activated faults appear in no group: they are provably
// undetectable by this golden run, and an unsharded Simulate would skip
// them identically (their count is the second return, for stats). Groups
// can still come back empty when there are fewer faults than shards.
func PartitionWeighted(n *gate.Netlist, golden *plasma.Golden, faults []fault.Fault, engine fault.Engine, laneWords int, weights []float64) ([][]int, int64, error) {
	groups, skipped, err := fault.PlanPasses(n, golden, faults, engine, laneWords)
	if err != nil {
		return nil, 0, err
	}
	shards := len(weights)
	if shards < 1 {
		shards = 1
	}
	w := make([]float64, shards)
	for i := range w {
		w[i] = 1
		if i < len(weights) && weights[i] > 0 {
			w[i] = weights[i]
		}
	}
	units := splitGroups(groups, shards)
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return units[order[a]].cost > units[order[b]].cost
	})
	out := make([][]int, shards)
	load := make([]float64, shards)
	for _, ui := range order {
		cost := units[ui].cost
		best := 0
		bestDone := (load[0] + cost) / w[0]
		for s := 1; s < shards; s++ {
			if done := (load[s] + cost) / w[s]; done < bestDone {
				best, bestDone = s, done
			}
		}
		out[best] = append(out[best], units[ui].idxs...)
		load[best] += cost
	}
	return out, skipped, nil
}

// distUnit is one unit of the LPT greedy: a contiguous slice of one pass
// group's packing order with its share of the group's estimated cost.
type distUnit struct {
	idxs []int
	cost float64
}

// splitGroups turns the pass plan into dispatch units, cutting any group
// whose cost exceeds unitCap — a quarter of a shard's fair share of the
// total — into equal contiguous sub-ranges. The cap gives the greedy at
// least ~4 units per shard to balance with whenever splitting is needed
// at all, while leaving plans that already have many small groups
// untouched. PassGroup.Cost is the per-fault model cost times the fault
// count, so equal fault slices carry equal cost shares.
func splitGroups(groups []fault.PassGroup, shards int) []distUnit {
	var total float64
	for i := range groups {
		total += groups[i].Cost
	}
	unitCap := total / float64(4*shards)
	units := make([]distUnit, 0, len(groups))
	for i := range groups {
		g := &groups[i]
		if g.Cost <= unitCap || len(g.Idxs) < 2 {
			units = append(units, distUnit{idxs: g.Idxs, cost: g.Cost})
			continue
		}
		parts := int(math.Ceil(g.Cost / unitCap))
		if parts > len(g.Idxs) {
			parts = len(g.Idxs)
		}
		per := g.Cost / float64(parts)
		for p := 0; p < parts; p++ {
			lo := p * len(g.Idxs) / parts
			hi := (p + 1) * len(g.Idxs) / parts
			units = append(units, distUnit{idxs: g.Idxs[lo:hi], cost: per})
		}
	}
	return units
}
