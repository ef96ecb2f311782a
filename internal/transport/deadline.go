package transport

import (
	"math"
	"strconv"
	"time"

	"glare/internal/xmlutil"
)

// Deadline propagation: a caller whose context carries a deadline stamps
// the remaining budget into the request envelope as
//
//	<Deadline budget_ms="142.512"/>
//
// and the server re-derives an absolute deadline from the budget on
// arrival. Budgets are relative (milliseconds remaining) rather than
// absolute timestamps so the scheme needs no clock synchronisation
// between sites — the network transit time is simply charged against the
// budget. Every forwarding hop re-stamps the (smaller) remainder, so the
// budget shrinks monotonically along a resolution chain, and a request
// whose budget is gone on arrival is refused before any work is done.

// deadlineElem is the envelope element carrying the propagated budget;
// budgetAttr is its attribute, in (fractional) milliseconds.
const (
	deadlineElem = "Deadline"
	budgetAttr   = "budget_ms"
)

// stampDeadline writes the remaining budget into env, replacing any
// previous stamp — each retry attempt re-stamps the shrunk remainder.
func stampDeadline(env *xmlutil.Node, remaining time.Duration) {
	dn := env.First(deadlineElem)
	if dn == nil {
		dn = env.Elem(deadlineElem)
	}
	ms := float64(remaining) / float64(time.Millisecond)
	dn.SetAttr(budgetAttr, strconv.FormatFloat(ms, 'f', 3, 64))
}

// parseDeadline extracts the propagated budget from a request envelope,
// anchoring it at now. ok is false when the envelope carries no (or a
// malformed) stamp, i.e. the caller set no deadline.
//
// A budget that is not a finite number (NaN, ±Inf) is malformed. A finite
// budget beyond time.Duration's range (about 292 years) is no deadline when
// positive and already expired when negative: converting it to a Duration
// would be implementation-defined, and on amd64 yields a deadline
// centuries in the past either way.
func parseDeadline(env *xmlutil.Node, now time.Time) (deadline time.Time, ok bool) {
	dn := env.First(deadlineElem)
	if dn == nil {
		return time.Time{}, false
	}
	ms, err := strconv.ParseFloat(dn.AttrOr(budgetAttr, ""), 64)
	if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) {
		return time.Time{}, false
	}
	ns := ms * float64(time.Millisecond)
	switch {
	case ns >= math.MaxInt64: // float64(MaxInt64) is 2^63, itself out of range
		return time.Time{}, false
	case ns <= math.MinInt64:
		return now, true
	}
	return now.Add(time.Duration(ns)), true
}
