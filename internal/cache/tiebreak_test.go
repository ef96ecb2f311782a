package cache

import (
	"testing"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
)

// offered returns a copy of resource "k" stamped by origin; its value
// names the origin so the surviving copy is identifiable.
func offered(origin string, lut time.Time) (epr.EPR, string) {
	src := epr.New("http://"+origin+"/atr", "Name", "k")
	src.LastUpdateTime = lut
	src.Extra = map[string]string{"OriginSite": origin}
	return src, origin
}

// TestPutIfNewerEqualStampConvergesOnSiteName pins the anti-entropy
// tiebreak: two copies carrying the SAME LastUpdateTime from different
// origin sites must converge on one deterministic winner — the greater
// site name — regardless of the order a syncing site learns about them.
// Without the tiebreak, sites syncing against different peers first would
// disagree forever while both copies look "equally fresh".
func TestPutIfNewerEqualStampConvergesOnSiteName(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	stamp := time.Unix(500, 0).UTC()
	srcA, docA := offered("agrid01.uibk.ac.at", stamp)
	srcB, docB := offered("agrid02.uibk.ac.at", stamp)

	// Order 1: learn A's copy, then B's. B (greater name) must replace A.
	c1 := New[string](clock, time.Hour)
	if !c1.PutIfNewer("type:k", srcA, docA) {
		t.Fatal("first put refused")
	}
	if !c1.PutIfNewer("type:k", srcB, docB) {
		t.Fatal("equal-stamp copy from greater-named origin refused")
	}

	// Order 2: learn B's copy, then A's. A (lesser name) must lose.
	c2 := New[string](clock, time.Hour)
	if !c2.PutIfNewer("type:k", srcB, docB) {
		t.Fatal("first put refused")
	}
	if c2.PutIfNewer("type:k", srcA, docA) {
		t.Fatal("equal-stamp copy from lesser-named origin accepted")
	}

	e1, _ := c1.Peek("type:k")
	e2, _ := c2.Peek("type:k")
	if got1, got2 := e1.Value, e2.Value; got1 != got2 {
		t.Fatalf("learn orders diverged: %q vs %q", got1, got2)
	} else if got1 != "agrid02.uibk.ac.at" {
		t.Fatalf("winner = %q, want the greater origin name", got1)
	}
}

// TestPutIfNewerEqualStampSameOriginOverwrites: a re-offer of the same
// (stamp, origin) pair is a re-delivery of the same version, not a
// conflict; refusing it keeps anti-entropy idempotent.
func TestPutIfNewerEqualStampSameOriginRefused(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	stamp := time.Unix(500, 0).UTC()
	src, doc := offered("agrid01.uibk.ac.at", stamp)
	c := New[string](clock, time.Hour)
	if !c.PutIfNewer("type:k", src, doc) {
		t.Fatal("first put refused")
	}
	if c.PutIfNewer("type:k", src, doc) {
		t.Fatal("identical (stamp, origin) re-offer was treated as newer")
	}
}
