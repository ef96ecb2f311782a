package transport

import (
	"reflect"
	"strconv"
	"testing"
	"time"

	"glare/internal/hlc"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// FuzzEnvelopeHeaders fuzzes the header attributes a server reads from a
// request envelope before any handler runs — the propagated budget, the
// caller's HLC stamp and its trace context — after the envelope crossed
// the wire (rendered, then parsed). Nothing may panic; a deadline is never
// in the past unless the budget was ≤ 0; a stamp that does not parse
// leaves the clock untouched; the trace context arrives as sent. The seed
// corpus is in testdata/fuzz/FuzzEnvelopeHeaders.
func FuzzEnvelopeHeaders(f *testing.F) {
	f.Fuzz(func(t *testing.T, budget, stamp, site, trace, span string) {
		env := xmlutil.NewNode("Envelope")
		env.Elem("Operation", "Echo")
		tn := env.Elem("Trace")
		tn.SetAttr("trace", trace)
		tn.SetAttr("span", span)
		hn := env.Elem("HLC")
		hn.SetAttr("t", stamp)
		hn.SetAttr("site", site)
		env.Elem(deadlineElem).SetAttr(budgetAttr, budget)
		env.Elem("Body")
		got, err := xmlutil.ParseString(env.String())
		if err != nil {
			return // a value outside the XML character range cannot cross the wire
		}

		now := time.Unix(1_800_000_000, 0)
		if dl, ok := parseDeadline(got, now); ok && dl.Before(now) {
			if ms, err := strconv.ParseFloat(budget, 64); err != nil || ms > 0 {
				t.Fatalf("budget %q gave deadline %v before now", budget, dl)
			}
		}

		clk := hlc.New("local", simclock.NewVirtual(now))
		lead, offsets := clk.Lead(), clk.PeerOffsets()
		observeHLC(clk, got)
		if _, err := time.Parse(time.RFC3339Nano, stamp); err != nil {
			if clk.Lead() != lead || !reflect.DeepEqual(clk.PeerOffsets(), offsets) {
				t.Fatalf("unparsable stamp %q moved the clock", stamp)
			}
		}

		traceID, parentSpan := traceContext(got)
		if traceID != trace || parentSpan != span {
			t.Fatalf("trace context = %q/%q, sent %q/%q", traceID, parentSpan, trace, span)
		}
		sp := telemetry.New("site").StartRemote("srv:Echo.Echo", traceID, parentSpan)
		if traceID != "" && sp.TraceID != traceID {
			t.Fatalf("server span joined trace %q, want %q", sp.TraceID, traceID)
		}
		sp.End(nil)
	})
}
