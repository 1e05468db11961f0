package sched

import (
	"testing"

	"parmp/internal/work"
)

func TestTakeCountCeil(t *testing.T) {
	// Regression for the simulator/executor rounding split: the executor
	// used floor(n*chunk) while the simulator used ceil(n*chunk), so any
	// fractional chunk diverged between the two. Both now share this
	// ceiling rule.
	cases := []struct {
		n     int
		chunk float64
		want  int
	}{
		{10, 0.25, 3}, // ceil(2.5); floor would give 2
		{10, 0.5, 5},
		{3, 0.5, 2},  // ceil(1.5); floor would give 1
		{7, 0.33, 3}, // ceil(2.31)
		{1, 0.5, 1},
		{4, 1e-9, 1},  // vanishing chunk: one task per steal
		{5, 0.999, 5}, // ceil(4.995)
		{5, 1, 5},
		{0, 0.5, 0},
		{-3, 0.5, 0},
	}
	for _, c := range cases {
		if got := TakeCount(c.n, c.chunk); got != c.want {
			t.Errorf("TakeCount(%d, %v) = %d, want %d", c.n, c.chunk, got, c.want)
		}
	}
}

func TestStealBack(t *testing.T) {
	mk := func(ids ...int) []Entry {
		es := make([]Entry, len(ids))
		for i, id := range ids {
			es[i].Task.ID = id
		}
		return es
	}
	rest, grant := StealBack(mk(0, 1, 2, 3), 0.5)
	if len(rest) != 2 || len(grant) != 2 {
		t.Fatalf("rest=%d grant=%d, want 2/2", len(rest), len(grant))
	}
	// Thieves take from the back, owners keep the front.
	if rest[0].Task.ID != 0 || rest[1].Task.ID != 1 {
		t.Fatalf("owner should keep front tasks, kept %v", rest)
	}
	if grant[0].Task.ID != 2 || grant[1].Task.ID != 3 {
		t.Fatalf("thief should get back tasks in order, got %v", grant)
	}
	for _, e := range grant {
		if !e.Stolen {
			t.Fatal("granted entries must be marked Stolen")
		}
	}
	for _, e := range rest {
		if e.Stolen {
			t.Fatal("kept entries must not be marked Stolen")
		}
	}
	if rest, grant := StealBack(nil, 0.5); rest != nil || grant != nil {
		t.Fatalf("empty deque must grant nothing, got %v/%v", rest, grant)
	}
}

func TestStealBackGrantIsCopy(t *testing.T) {
	items := make([]Entry, 4)
	for i := range items {
		items[i].Task.ID = i
	}
	rest, grant := StealBack(items, 0.5)
	// Appending to the owner's remainder must not clobber the grant (they
	// would otherwise share the original backing array).
	rest = append(rest, Entry{Task: work.Task{ID: 99}})
	_ = rest
	if grant[0].Task.ID != 2 || grant[1].Task.ID != 3 {
		t.Fatalf("grant aliases the owner's deque: %v", grant)
	}
}

func TestConfigChunkDefault(t *testing.T) {
	if got := (Config{}).Chunk(); got != 0.5 {
		t.Fatalf("zero StealChunk should default to 0.5, got %v", got)
	}
	if got := (Config{StealChunk: -1}).Chunk(); got != 0.5 {
		t.Fatalf("negative StealChunk should default to 0.5, got %v", got)
	}
	// Regression: StealChunk > 1 used to silently reset to the 0.5
	// default — a caller asking for "steal everything" got half. It now
	// clamps to 1.
	if got := (Config{StealChunk: 2}).Chunk(); got != 1 {
		t.Fatalf("StealChunk above 1 should clamp to 1, got %v", got)
	}
	if got := (Config{StealChunk: 1}).Chunk(); got != 1 {
		t.Fatalf("Chunk() = %v, want 1", got)
	}
	if got := (Config{StealChunk: 0.25}).Chunk(); got != 0.25 {
		t.Fatalf("Chunk() = %v, want 0.25", got)
	}
}

func TestReshard(t *testing.T) {
	mkQueues := func(sizes ...int) [][]work.Task {
		queues := make([][]work.Task, len(sizes))
		id := 0
		for q, n := range sizes {
			for j := 0; j < n; j++ {
				queues[q] = append(queues[q], work.Task{ID: id})
				id++
			}
		}
		return queues
	}
	// Matching counts pass through untouched, preserving the assignment.
	in := mkQueues(2, 3)
	if got := Reshard(in, 2); len(got) != 2 || got[0][0].ID != 0 || got[1][0].ID != 2 {
		t.Fatalf("matching queues must pass through unchanged, got %v", got)
	}
	// One queue over three workers: round-robin task by task.
	out := Reshard(mkQueues(7), 3)
	if len(out) != 3 {
		t.Fatalf("resharded into %d queues, want 3", len(out))
	}
	for w, wantIDs := range [][]int{{0, 3, 6}, {1, 4}, {2, 5}} {
		if len(out[w]) != len(wantIDs) {
			t.Fatalf("worker %d has %d tasks, want %d", w, len(out[w]), len(wantIDs))
		}
		for i, id := range wantIDs {
			if out[w][i].ID != id {
				t.Errorf("worker %d task %d = ID %d, want %d", w, i, out[w][i].ID, id)
			}
		}
	}
	// Shrinking: five queues onto two workers, flattened in queue order.
	out = Reshard(mkQueues(1, 1, 1, 1, 1), 2)
	if len(out[0]) != 3 || len(out[1]) != 2 {
		t.Fatalf("shrink reshard sizes = %d/%d, want 3/2", len(out[0]), len(out[1]))
	}
	// Degenerate worker counts leave the input alone.
	if got := Reshard(in, 0); len(got) != len(in) {
		t.Fatal("non-positive workers must not reshard")
	}
}

func TestBackoff(t *testing.T) {
	// The shared curve: base * 2^(attempt-1), capped at 16 * base.
	cases := []struct {
		attempt    int
		base, want float64
	}{
		{1, 100, 100},
		{2, 100, 200},
		{3, 100, 400},
		{5, 100, 1600},
		{6, 100, 1600},  // capped at 16x
		{99, 100, 1600}, // stays capped
		{0, 100, 100},   // attempt clamps up to 1
	}
	for _, c := range cases {
		if got := Backoff(c.attempt, c.base); got != c.want {
			t.Errorf("Backoff(%d, %v) = %v, want %v", c.attempt, c.base, got, c.want)
		}
	}
}
