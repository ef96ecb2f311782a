package main

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/vo"
)

// hopHook sits on every site's outbound transport client (and on the load
// generator's clients) through transport.Client.WrapTransport. It can add
// a fixed delay to each call and, while recording, keeps one span per
// call plus byte counts and the smallest and largest response envelopes.
type hopHook struct {
	delay     time.Duration
	recording atomic.Bool
	epoch     time.Time
	tracer    *telemetry.Tracer
	// genTel times the load generator's own calls.
	genTel *telemetry.Telemetry
	nextID atomic.Int64

	reqBytes, respBytes atomic.Int64

	mu    sync.Mutex
	hosts map[string]string // host:port → site name
	spans []span
	small []byte // smallest response envelope seen while recording
	large []byte // largest response envelope seen while recording
}

// span is one timed interval of a traced run. Client operations are roots;
// hops are outbound calls, parented offline (see attribute).
type span struct {
	Trace     string `json:"trace"`
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"`
	Name      string `json:"name"`
	Src       string `json:"src,omitempty"`
	Dst       string `json:"dst,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	ReqBytes  int    `json:"req_bytes,omitempty"`
	RespBytes int    `json:"resp_bytes,omitempty"`
	Self      int64  `json:"self_ns"`
}

// clientSrc names the load generator as a hop source.
const clientSrc = "client"

func newHopHook(delay time.Duration) *hopHook {
	return &hopHook{delay: delay, epoch: time.Now(), tracer: telemetry.NewTracer(),
		genTel: telemetry.New(clientSrc), hosts: map[string]string{}}
}

func (h *hopHook) setRecording(on bool) { h.recording.Store(on) }

// reset drops everything recorded so far: spans, byte counts and the
// captured envelopes.
func (h *hopHook) reset() {
	h.mu.Lock()
	h.spans, h.small, h.large = nil, nil, nil
	h.mu.Unlock()
	h.reqBytes.Store(0)
	h.respBytes.Store(0)
}

func (h *hopHook) now() int64 { return int64(time.Since(h.epoch)) }

// wrapSites hooks every site's outbound client. Call after vo.Build and
// before the first remote call (the election).
func (h *hopHook) wrapSites(v *vo.VO) {
	if h == nil {
		return
	}
	for _, n := range v.Nodes {
		h.hosts[hostOf(n.Info.BaseURL)] = n.Info.Name
		h.wrap(n.Client, n.Info.Name)
	}
}

// wrapGenerator hooks one of the load generator's clients and times its
// calls into the generator's telemetry.
func (h *hopHook) wrapGenerator(c *transport.Client) {
	if h == nil {
		return
	}
	h.wrap(c, clientSrc)
	c.SetTelemetry(h.genTel)
}

// wrap hooks one client whose calls originate at src.
func (h *hopHook) wrap(c *transport.Client, src string) {
	c.WrapTransport(func(next http.RoundTripper) http.RoundTripper {
		return &hopTripper{next: next, h: h, src: src}
	})
}

func hostOf(base string) string {
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	return u.Host
}

// opSpan opens a client-operation span; the returned telemetry span is
// passed to transport.Client.CallSpan so its trace ID rides the envelope's
// Trace header. Both are nil (and end a no-op) while not recording.
func (h *hopHook) opSpan(kind string) (*telemetry.Span, func()) {
	if h == nil || !h.recording.Load() {
		return nil, func() {}
	}
	tsp := h.tracer.StartSpan(kind, nil)
	s := span{Trace: tsp.TraceID, ID: h.nextID.Add(1), Name: "op:" + kind, Start: h.now()}
	return tsp, func() {
		s.End = h.now()
		h.add(s)
	}
}

func (h *hopHook) add(s span) {
	h.mu.Lock()
	h.spans = append(h.spans, s)
	h.mu.Unlock()
}

// capture keeps the response envelope if it is the smallest or largest
// seen so far.
func (h *hopHook) capture(body []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.small == nil || len(body) < len(h.small) {
		h.small = append([]byte(nil), body...)
	}
	if len(body) > len(h.large) {
		h.large = append([]byte(nil), body...)
	}
}

type hopTripper struct {
	next http.RoundTripper
	h    *hopHook
	src  string
}

func (t *hopTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.h
	if !h.recording.Load() {
		if h.delay > 0 {
			time.Sleep(h.delay)
		}
		return t.next.RoundTrip(req)
	}
	s := span{ID: h.nextID.Add(1), Src: t.src, Start: h.now()}
	h.mu.Lock()
	s.Dst = h.hosts[req.URL.Host]
	h.mu.Unlock()
	if req.GetBody != nil {
		if rc, err := req.GetBody(); err == nil {
			body, _ := io.ReadAll(rc) // a bytes.Reader copy: cannot fail
			rc.Close()
			s.ReqBytes = len(body)
			s.Name = "hop:" + between(body, "<Operation>", "</Operation>")
			s.Trace = between(body, `<Trace trace="`, `"`)
		}
	}
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		s.End = h.now()
		h.add(s)
		return nil, err
	}
	resp.Body = &recordingBody{rc: resp.Body, h: h, s: s}
	return resp, nil
}

// recordingBody finishes the hop's span when the caller has consumed and
// closed the response.
type recordingBody struct {
	rc   io.ReadCloser
	h    *hopHook
	s    span
	buf  bytes.Buffer
	once sync.Once
}

func (b *recordingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.buf.Write(p[:n])
	return n, err
}

func (b *recordingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() {
		b.s.End = b.h.now()
		b.s.RespBytes = b.buf.Len()
		b.h.reqBytes.Add(int64(b.s.ReqBytes))
		b.h.respBytes.Add(int64(b.s.RespBytes))
		b.h.capture(b.buf.Bytes())
		b.h.add(b.s)
	})
	return err
}

// between returns the text after the first open marker up to close.
func between(b []byte, open, close string) string {
	i := bytes.Index(b, []byte(open))
	if i < 0 {
		return ""
	}
	rest := b[i+len(open):]
	j := bytes.Index(rest, []byte(close))
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
