package netsim

import (
	"testing"
)

// TestLockstepAdvances: every shard reaches the barrier, and events
// fired concurrently match a serial reference run exactly.
func TestLockstepAdvances(t *testing.T) {
	const shards = 16

	// Each shard schedules a self-rescheduling tick at its own period
	// and counts firings — a miniature traffic source.
	run := func(parallel int) []int {
		counts := make([]int, shards)
		sims := make([]*Simulator, shards)
		for i := range sims {
			i := i
			sims[i] = NewSimulator()
			period := Time(i+1) * Millisecond
			var tick func()
			tick = func() {
				counts[i]++
				sims[i].After(period, tick)
			}
			sims[i].After(period, tick)
		}
		ls := NewLockstep(parallel, sims...)
		for step := 0; step < 10; step++ {
			ls.AdvanceFor(100 * Millisecond)
		}
		if got := ls.Now(); got != Second {
			t.Fatalf("lockstep Now = %v, want %v", got, Second)
		}
		for i, s := range sims {
			if s.Now() != Second {
				t.Fatalf("shard %d at %v, want %v", i, s.Now(), Second)
			}
		}
		return counts
	}

	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("shard %d: serial %d ticks, parallel %d", i, serial[i], parallel[i])
		}
		want := int(Second / (Time(i+1) * Millisecond))
		if serial[i] != want {
			t.Errorf("shard %d: %d ticks, want %d", i, serial[i], want)
		}
	}
}

// TestLockstepAddBehind: a fresh shard added after advances catches up
// at the next barrier.
func TestLockstepAddBehind(t *testing.T) {
	a := NewSimulator()
	ls := NewLockstep(2, a)
	ls.AdvanceFor(50 * Millisecond)

	b := NewSimulator()
	ls.Add(b)
	ls.AdvanceFor(50 * Millisecond)
	if a.Now() != b.Now() || a.Now() != 100*Millisecond {
		t.Fatalf("shards at %v and %v, want both at %v", a.Now(), b.Now(), 100*Millisecond)
	}
}

// TestLockstepPanics: adopting a shard from the future and rewinding
// both panic — they would make the shared timeline ill-defined.
func TestLockstepPanics(t *testing.T) {
	ahead := NewSimulator()
	ahead.RunFor(Second)
	mustPanic(t, "adopting future shard", func() {
		NewLockstep(1).Add(ahead)
	})

	ls := NewLockstep(1, NewSimulator())
	ls.AdvanceTo(Second)
	mustPanic(t, "advancing backwards", func() {
		ls.AdvanceTo(Millisecond)
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

// lockstepTranscript drives shards paths with a deterministic
// self-rescheduling event cascade (a seeded xorshift PRNG per shard
// feeding packet sizes onto a real Link) across several barriers and
// returns an FNV-1a hash over every shard's event transcript, in shard
// order. The hash is integer-only, so it is identical on every
// platform.
func lockstepTranscript(shards, parallel int) uint64 {
	sims := make([]*Simulator, shards)
	transcripts := make([][]uint64, shards)
	for i := range sims {
		i := i
		sims[i] = NewSimulator()
		link := NewLink(sims[i], "l", 10e6, Millisecond, 64<<10)
		link.OnTransmit(func(pkt *Packet, done Time) {
			transcripts[i] = append(transcripts[i], uint64(done)^uint64(pkt.Size)<<32)
		})
		rng := uint64(i)*0x9e3779b97f4a7c15 + 1
		var tick func()
		tick = func() {
			// xorshift64: deterministic, platform-independent.
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			pkt := sims[i].NewPacket()
			pkt.Size = 40 + int(rng%1460)
			sims[i].Inject(pkt, []*Link{link}, nil)
			sims[i].After(Time(100+rng%900)*Microsecond, tick)
		}
		sims[i].After(Time(rng%1000)*Microsecond, tick)
	}
	ls := NewLockstep(parallel, sims...)
	defer ls.Close()
	for step := 0; step < 5; step++ {
		ls.AdvanceFor(20 * Millisecond)
	}
	h := newFNV()
	for _, tr := range transcripts {
		h.add(tr...)
	}
	return uint64(h)
}

// lockstep1kTranscriptHash pins the 1024-shard transcript. The sharded
// parallel core must never diverge from the sequential core, and
// neither may silently change: a refactor that reorders events, alters
// event counts, or races shard state shows up here as a hash mismatch.
// Recompute the constant (printed on failure) only for an intentional
// semantic change to the simulator core.
const lockstep1kTranscriptHash uint64 = 0xfe6a92630c7649c1

// TestDeterminismLockstep1kPaths advances 1024 shards on the pinned
// worker pool and checks the combined transcript hash against both a
// sequential (parallel=1) run and the pinned constant. CI runs it under
// -race -count=2, so a divergent interleaving in the sharded core
// cannot hide.
func TestDeterminismLockstep1kPaths(t *testing.T) {
	const shards = 1024
	seq := lockstepTranscript(shards, 1)
	par := lockstepTranscript(shards, 8)
	if seq != par {
		t.Fatalf("parallel lockstep transcript %#x diverges from sequential %#x", par, seq)
	}
	if seq != lockstep1kTranscriptHash {
		t.Fatalf("lockstep transcript hash %#x, want pinned %#x — the simulator core's event order changed", seq, lockstep1kTranscriptHash)
	}
}
