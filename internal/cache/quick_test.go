package cache

import (
	"testing"
	"testing/quick"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
)

// cacheOp encodes one random cache action.
type cacheOp struct {
	Kind    uint8 // 0 put, 1 get, 2 invalidate, 3 advance clock
	Key     uint8
	Seconds uint8
}

// Property: against a model map with the same TTL semantics, Get always
// agrees on presence, Len never disagrees after expiry-free sequences, and
// statistics only ever grow.
func TestQuickCacheAgreesWithModel(t *testing.T) {
	const ttl = time.Minute
	f := func(ops []cacheOp) bool {
		clock := simclock.NewVirtual(time.Time{})
		c := New[string](clock, ttl)
		type entry struct{ stored time.Time }
		model := map[string]entry{}
		var prev Stats
		for _, o := range ops {
			key := "k" + string(rune('a'+o.Key%6))
			switch o.Kind % 4 {
			case 0:
				src := epr.New("http://s/wsrf/services/X", "K", key)
				src.LastUpdateTime = clock.Now()
				c.Put(key, src, "V")
				model[key] = entry{stored: clock.Now()}
			case 1:
				_, got := c.Get(key)
				m, ok := model[key]
				want := ok && clock.Now().Sub(m.stored) <= ttl
				if got != want {
					return false
				}
				if !want {
					delete(model, key) // Get evicts stale entries
				}
			case 2:
				c.Invalidate(key)
				delete(model, key)
			case 3:
				clock.Advance(time.Duration(o.Seconds%45) * time.Second)
			}
			st := c.Stats()
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Discarded < prev.Discarded {
				return false // counters must be monotone
			}
			prev = st
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
