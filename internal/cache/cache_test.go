package cache

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

func TestConfigs(t *testing.T) {
	if err := L1Config().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := L2Config().Validate(); err != nil {
		t.Fatal(err)
	}
	if L1Config().Sets() != 64 { // 16KB / (64B × 4 ways)
		t.Errorf("L1 sets = %d, want 64", L1Config().Sets())
	}
	if L2Config().Sets() != 1024 { // 1MB / (64B × 16 ways)
		t.Errorf("L2 sets = %d, want 1024", L2Config().Sets())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4},
		{SizeBytes: 1024, LineBytes: 60, Ways: 4},
		{SizeBytes: 1000, LineBytes: 64, Ways: 4},
		{SizeBytes: 64 * 4 * 3, LineBytes: 64, Ways: 4}, // 3 sets
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(L1Config())
	if c.Access(0x1000, false) {
		t.Error("cold access hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Error("access after fill missed")
	}
	if !c.Access(0x1008, false) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1040, false) {
		t.Error("next-line access hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Fills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 4-way set: fill 4 lines mapping to set 0, touch the first, then
	// fill a 5th — the LRU (second) line must be evicted.
	cfg := Config{SizeBytes: 64 * 4 * 4, LineBytes: 64, Ways: 4} // 4 sets
	c := New(cfg)
	setStride := uint64(64 * 4) // lines mapping to same set
	addrs := []uint64{0, setStride, 2 * setStride, 3 * setStride}
	for _, a := range addrs {
		c.Fill(a, false)
	}
	c.Access(addrs[0], false) // refresh line 0
	ev, dirty, has := c.Fill(4*setStride, false)
	if !has {
		t.Fatal("no eviction from full set")
	}
	if ev != addrs[1] || dirty {
		t.Errorf("evicted %#x (dirty=%v), want %#x clean", ev, dirty, addrs[1])
	}
	if !c.Contains(addrs[0]) || c.Contains(addrs[1]) {
		t.Error("wrong line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 2, LineBytes: 64, Ways: 2} // 1 set, 2 ways
	c := New(cfg)
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	c.Fill(64, false)
	ev, dirty, has := c.Fill(128, false)
	if !has || !dirty || ev != 0 {
		t.Errorf("eviction = %#x dirty=%v has=%v, want line 0 dirty", ev, dirty, has)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestFillDirty(t *testing.T) {
	c := New(L1Config())
	c.Fill(0x40, true) // e.g. a store miss fill
	wasDirty, present := c.Invalidate(0x40)
	if !present || !wasDirty {
		t.Errorf("dirty fill lost: present=%v dirty=%v", present, wasDirty)
	}
}

func TestDoubleFillKeepsDirty(t *testing.T) {
	c := New(L1Config())
	c.Fill(0x80, true)
	ev, _, has := c.Fill(0x80, false) // refill same line clean
	if has {
		t.Errorf("refill evicted %#x", ev)
	}
	if wasDirty, _ := c.Invalidate(0x80); !wasDirty {
		t.Error("refill dropped dirty bit")
	}
}

func TestInvalidateMissing(t *testing.T) {
	c := New(L1Config())
	if d, p := c.Invalidate(0x123440); d || p {
		t.Error("invalidate of absent line reported presence")
	}
}

func TestResidentLines(t *testing.T) {
	c := New(L1Config())
	for i := 0; i < 10; i++ {
		c.Fill(uint64(i*64), false)
	}
	if got := c.ResidentLines(); got != 10 {
		t.Errorf("resident = %d", got)
	}
}

func TestLineAddr(t *testing.T) {
	c := New(L1Config())
	if c.LineAddr(0x1073) != 0x1040 {
		t.Errorf("LineAddr = %#x", c.LineAddr(0x1073))
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty hit rate nonzero")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

// TestCapacityInvariant (property): resident lines never exceed
// capacity, and a fill after miss always makes the line resident.
func TestCapacityInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := Config{SizeBytes: 1 << 12, LineBytes: 64, Ways: 4}
	c := New(cfg)
	capacity := cfg.SizeBytes / cfg.LineBytes
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(1<<16)) &^ 63
		if !c.Access(addr, rng.Intn(2) == 0) {
			c.Fill(addr, false)
			if !c.Contains(addr) {
				t.Fatalf("line %#x absent after fill", addr)
			}
		}
		if r := c.ResidentLines(); r > capacity {
			t.Fatalf("resident %d exceeds capacity %d", r, capacity)
		}
	}
	s := c.Stats()
	if s.Hits+s.Misses != 5000 {
		t.Errorf("accesses = %d", s.Hits+s.Misses)
	}
}

// TestEvictionAddressRoundTrip (property): the reconstructed victim
// address maps back to the same set and is line-aligned.
func TestEvictionAddressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New(Config{SizeBytes: 1 << 12, LineBytes: 64, Ways: 2})
	filled := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Intn(1<<18)) &^ 63
		if !c.Access(addr, false) {
			ev, _, has := c.Fill(addr, false)
			filled[addr] = true
			if has {
				if ev%64 != 0 {
					t.Fatalf("victim %#x not line aligned", ev)
				}
				if !filled[ev] {
					t.Fatalf("victim %#x was never filled", ev)
				}
				if c.Contains(ev) {
					t.Fatalf("victim %#x still resident", ev)
				}
			}
		}
	}
}

func TestWorkingSetFitsPerfectly(t *testing.T) {
	// A working set equal to capacity, accessed round-robin, must reach
	// 100% hits after the first pass (LRU with round-robin reuse).
	cfg := Config{SizeBytes: 1 << 12, LineBytes: 64, Ways: 4}
	c := New(cfg)
	lines := cfg.SizeBytes / cfg.LineBytes
	for i := 0; i < lines; i++ {
		c.Access(uint64(i*64), false)
		c.Fill(uint64(i*64), false)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			if !c.Access(uint64(i*64), false) {
				t.Fatalf("pass %d line %d missed", pass, i)
			}
		}
	}
}

// refFill is Fill before its victim search became one pass: the
// two-pass form that re-reads the current victim on every way, with the
// tag shift derived from Config.Sets on each call. The differential
// test below replays streams through it and through Fill.
func refFill(c *Cache, addr uint64, dirty bool) (evictedAddr uint64, evictedDirty, hasVictim bool) {
	setBits := uint(bits.TrailingZeros(uint(c.cfg.Sets())))
	line := addr >> c.lineShift
	set, tag := int(line&c.setMask), line>>setBits
	c.clock++
	c.stats.Fills++
	victim := 0
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			w.dirty = w.dirty || dirty
			w.lru = c.clock
			return 0, false, false
		}
		if !w.valid {
			victim = i
		} else if c.sets[set][victim].valid && w.lru < c.sets[set][victim].lru {
			victim = i
		}
	}
	w := &c.sets[set][victim]
	if w.valid {
		c.stats.Evictions++
		if w.dirty {
			c.stats.Writebacks++
		}
		evictedAddr = ((w.tag << setBits) | uint64(set)) << c.lineShift
		evictedDirty = w.dirty
		hasVictim = true
	}
	*w = way{tag: tag, valid: true, dirty: dirty, lru: c.clock}
	return evictedAddr, evictedDirty, hasVictim
}

// holesBehindValid counts the invalid ways of addr's set that sit before
// a valid way: the state invalidateForPIM leaves in a full set, where
// the victim search must skip valid ways to reach the last hole.
func holesBehindValid(c *Cache, addr uint64) int {
	set, _ := c.locate(addr)
	ways := c.sets[set]
	n := 0
	for i, w := range ways {
		if w.valid {
			continue
		}
		for _, later := range ways[i+1:] {
			if later.valid {
				n++
				break
			}
		}
	}
	return n
}

// TestFillMatchesReference replays seeded random Access, Fill and
// Invalidate streams through Fill and refFill on the test- and
// paper-profile cache geometries, comparing every return value, the
// final Stats and the final way state.
func TestFillMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name string
		cfg  Config
	}{
		{"test L1", Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4}},
		{"test L2", Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 16}},
		{"paper L1", Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 4}},
		{"paper L2", Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 16}},
	} {
		t.Run(g.name, func(t *testing.T) {
			holes, multi := 0, 0
			for seed := int64(1); seed <= 4; seed++ {
				got, ref := New(g.cfg), New(g.cfg)
				rng := rand.New(rand.NewSource(seed))
				lines := 3 * g.cfg.SizeBytes / g.cfg.LineBytes // three times the capacity
				var recent [64]uint64                          // recent fills: mostly resident
				fill := func(i int, addr uint64, dirty bool) {
					if n := holesBehindValid(ref, addr); n > 0 {
						holes++
						if n > 1 {
							multi++
						}
					}
					ga, gd, gh := got.Fill(addr, dirty)
					ra, rd, rh := refFill(ref, addr, dirty)
					if ga != ra || gd != rd || gh != rh {
						t.Fatalf("seed %d op %d: Fill(%#x, %v) = (%#x, %v, %v), reference (%#x, %v, %v)",
							seed, i, addr, dirty, ga, gd, gh, ra, rd, rh)
					}
					recent[i%len(recent)] = addr
				}
				for i := 0; i < 20000; i++ {
					addr := uint64(rng.Intn(lines)*g.cfg.LineBytes + rng.Intn(g.cfg.LineBytes))
					switch r := rng.Intn(10); {
					case r < 6: // an access, filled on a miss as the GPU does
						write := rng.Intn(4) == 0
						gh, rh := got.Access(addr, write), ref.Access(addr, write)
						if gh != rh {
							t.Fatalf("seed %d op %d: Access(%#x) hit %v, reference %v", seed, i, addr, gh, rh)
						}
						if !gh {
							fill(i, addr, write)
						}
					case r < 8: // a fill that may find its line resident
						fill(i, addr, rng.Intn(2) == 0)
					default: // an invalidation, usually of a recent fill
						if rng.Intn(4) != 0 {
							addr = recent[rng.Intn(len(recent))]
						}
						gd, gp := got.Invalidate(addr)
						rd, rp := ref.Invalidate(addr)
						if gd != rd || gp != rp {
							t.Fatalf("seed %d op %d: Invalidate(%#x) = (%v, %v), reference (%v, %v)", seed, i, addr, gd, gp, rd, rp)
						}
					}
				}
				if got.Stats() != ref.Stats() {
					t.Errorf("seed %d: stats %+v, reference %+v", seed, got.Stats(), ref.Stats())
				}
				if !reflect.DeepEqual(got.sets, ref.sets) || got.clock != ref.clock {
					t.Errorf("seed %d: final way state differs from the reference", seed)
				}
			}
			// The streams must reach the case the one-pass search changes
			// most: a hole behind valid ways, and several holes at once.
			if holes == 0 || multi == 0 {
				t.Errorf("fills into sets with holes behind valid ways: %d (%d with several), want both > 0", holes, multi)
			}
		})
	}
}
