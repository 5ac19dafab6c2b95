// The shard planner: deterministic partition of a point list.

package distrib

import "repro/qnet/simulate"

// Shard is one planned unit of dispatch: a set of point indices into a
// space's deterministic expansion.
type Shard struct {
	// ID is the shard's position in plan order, 0-based.
	ID int
	// Indices are the point indices this shard owns.
	Indices []int
}

// PlanShards partitions the point indices [0, total) into at most
// shards contiguous, near-equal shards (the first total%shards shards
// get one extra point).  A non-positive shard count, or one exceeding
// the point count, collapses to one point per shard.  The plan is a
// pure function of its arguments, so coordinator restarts re-plan
// identically.
func PlanShards(total, shards int) []Shard {
	if total <= 0 {
		return nil
	}
	if shards <= 0 || shards > total {
		shards = total
	}
	out := make([]Shard, 0, shards)
	base := total / shards
	extra := total % shards
	next := 0
	for i := 0; i < shards; i++ {
		size := base
		if i < extra {
			size++
		}
		idx := make([]int, size)
		for j := range idx {
			idx[j] = next
			next++
		}
		out = append(out, Shard{ID: i, Indices: idx})
	}
	return out
}

// planKeyShards is PlanShards over a space's distinct store keys rather
// than its points: it numbers the keys in first-appearance order, plans
// shards over those numbers, and gives each shard the points of its
// keys, in index order.  Every point of one key then lands in one
// shard, where the worker's flight group simulates the key once.  With
// every key distinct the plan equals PlanShards(len(keys), shards).
func planKeyShards(keys []simulate.Key, shards int) []Shard {
	groupOf := make(map[simulate.Key]int, len(keys))
	group := make([]int, len(keys)) // each point's key number
	for i, k := range keys {
		g, ok := groupOf[k]
		if !ok {
			g = len(groupOf)
			groupOf[k] = g
		}
		group[i] = g
	}
	plan := PlanShards(len(groupOf), shards)
	shardOf := make([]int, len(groupOf))
	for s := range plan {
		for _, g := range plan[s].Indices {
			shardOf[g] = s
		}
		plan[s].Indices = plan[s].Indices[:0]
	}
	for i, g := range group {
		s := shardOf[g]
		plan[s].Indices = append(plan[s].Indices, i)
	}
	return plan
}
