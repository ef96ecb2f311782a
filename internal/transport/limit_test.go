package transport

import (
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"glare/internal/xmlutil"
)

// envelopeOfSize builds a well-formed request envelope of exactly n bytes
// by padding the text of its one body element; it also returns the
// padding length.
func envelopeOfSize(t *testing.T, n int) (string, int) {
	t.Helper()
	head := "<Envelope><Operation>Size</Operation><Body><Blob>"
	tail := "</Blob></Body></Envelope>"
	pad := n - len(head) - len(tail)
	if pad < 0 {
		t.Fatalf("envelope of %d bytes too small", n)
	}
	return head + strings.Repeat("a", pad) + tail, pad
}

// TestOversizedRequestGetsExplicitFault: a request body one byte past
// MaxEnvelopeBytes is refused with a 413 fault naming the limit, instead
// of being truncated and reported as a malformed envelope, while a body of
// exactly the limit still reaches its handler intact.
func TestOversizedRequestGetsExplicitFault(t *testing.T) {
	srv := NewServer()
	got := make(chan int, 1)
	srv.Register("L", "Size", func(body *xmlutil.Node) (*xmlutil.Node, error) {
		got <- len(body.Text)
		return nil, nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.ServiceURL("L"), "application/xml", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}

	atLimit, pad := envelopeOfSize(t, MaxEnvelopeBytes)
	if status, body := post(atLimit); status != http.StatusOK {
		t.Fatalf("envelope at the limit: status %d, %.200s", status, body)
	}
	if n := <-got; n != pad {
		t.Fatalf("handler saw %d bytes of text, want %d", n, pad)
	}

	overLimit, _ := envelopeOfSize(t, MaxEnvelopeBytes+1)
	status, body := post(overLimit)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("envelope past the limit: status %d, %.200s", status, body)
	}
	if !strings.Contains(body, "<Fault>") || !strings.Contains(body, strconv.Itoa(MaxEnvelopeBytes)) {
		t.Fatalf("fault does not name the limit: %.200s", body)
	}
	if strings.Contains(body, "malformed") {
		t.Fatalf("oversized request reported as malformed: %.200s", body)
	}
	select {
	case <-got:
		t.Fatal("handler ran on an oversized request")
	default:
	}
}

// TestOversizedResponseIsDistinctError: a response envelope past the limit
// fails the call with ErrResponseTooLarge, which is neither an Unavailable
// (the site answered) nor a remote Fault, and is not retried.
func TestOversizedResponseIsDistinctError(t *testing.T) {
	srv := NewServer()
	var calls atomic.Int32
	srv.Register("L", "Big", func(*xmlutil.Node) (*xmlutil.Node, error) {
		calls.Add(1)
		return xmlutil.NewNode("Blob", strings.Repeat("a", MaxEnvelopeBytes)), nil
	})
	if err := srv.Start("127.0.0.1:0", nil); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli := NewClient(nil)
	cli.SetRetryPolicy(DefaultRetryPolicy())
	_, err := cli.Call(srv.ServiceURL("L"), "Big", nil)
	if !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("err = %v, want ErrResponseTooLarge", err)
	}
	if IsUnavailable(err) || IsFault(err) {
		t.Fatalf("oversized response classified as unavailable or fault: %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("oversized response retried: %d calls", n)
	}
}
