package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sptrsv/internal/cluster"
	"sptrsv/internal/native"
	"sptrsv/internal/prec"
	"sptrsv/internal/registry"
	"sptrsv/internal/serve"
	"sptrsv/internal/transport"
)

// backend is one solve daemon, in process: a registry behind the
// transport service behind a real http.Server on a loopback listener,
// wired the way cmd/solved wires them with every flag at its default.
type backend struct {
	reg    *registry.Registry
	svc    *transport.Service
	srv    *http.Server
	url    string
	served chan error
}

func startBackend() (*backend, error) {
	reg := registry.New(registry.Config{Serve: serve.Config{
		Strategy: native.StrategyAuto, Kernel: native.KernelAuto, Precision: prec.PolicyFloat64,
	}})
	svc := transport.New(reg)
	srv, url, served, err := serveLoopback(svc)
	if err != nil {
		reg.Close()
		return nil, err
	}
	return &backend{reg: reg, svc: svc, srv: srv, url: url, served: served}, nil
}

func (b *backend) close() {
	stopServer(b.srv, b.served)
	b.reg.Close()
}

func serveLoopback(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), served, nil
}

// stopServer drains srv and waits for its accept loop to end.
func stopServer(srv *http.Server, served chan error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	<-served
}

// stack is everything one HTTP workload stands up: the backends, the
// router in front of them when there are two, and the load generator's
// own HTTP client.
type stack struct {
	backends     []*backend
	router       *cluster.Router
	routerSrv    *http.Server
	routerServed chan error
	// entry is where the workload's clients send: the router when there
	// is one, else the only backend.
	entry string

	httpc   *http.Client
	cli     *cluster.Client
	retries atomic.Int64 // attempts beyond the first, by the load generator's client

	dialMu sync.Mutex
	dials  map[string]int // connections opened, by address
}

// startStack stands the stack up. conns is how many callers the load
// generator will run at once: its transport holds exactly one connection
// per caller to a host.
func startStack(nBackends, conns int) (*stack, error) {
	s := &stack{dials: map[string]int{}}
	for i := 0; i < nBackends; i++ {
		b, err := startBackend()
		if err != nil {
			s.close()
			return nil, err
		}
		s.backends = append(s.backends, b)
	}
	s.entry = s.backends[0].url
	if nBackends > 1 {
		urls := make([]string, nBackends)
		for i, b := range s.backends {
			urls[i] = b.url
		}
		rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: urls})
		if err != nil {
			s.close()
			return nil, err
		}
		s.router = rt
		srv, url, served, err := serveLoopback(rt)
		if err != nil {
			s.close()
			return nil, err
		}
		s.routerSrv, s.routerServed, s.entry = srv, served, url
	}
	// The load generator must not be the bottleneck it measures:
	// http.DefaultTransport keeps 2 idle connections per host, which
	// makes 8 closed-loop clients redial constantly. Here every caller
	// keeps its connection; the cap makes a caller whose connection is
	// still on its way back to the idle pool wait the microseconds for
	// it rather than dial a spare.
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	s.httpc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dialMu.Lock()
			s.dials[addr]++
			s.dialMu.Unlock()
			return dialer.DialContext(ctx, network, addr)
		},
	}}
	s.cli = &cluster.Client{HTTP: s.httpc, MaxAttempts: 8, MaxRetryAfter: 2 * time.Second}
	return s, nil
}

func (s *stack) close() {
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
	if s.routerSrv != nil {
		stopServer(s.routerSrv, s.routerServed)
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, b := range s.backends {
		b.close()
	}
}

func (s *stack) connsOpened(baseURL string) int {
	s.dialMu.Lock()
	defer s.dialMu.Unlock()
	return s.dials[strings.TrimPrefix(baseURL, "http://")]
}

// do sends one request through the retrying client and returns the body
// of a response with the wanted status. Anything else — retries
// exhausted, another status, a broken body — is an error, which the
// callers count as a failed operation.
func (s *stack) do(ctx context.Context, method, base, path, contentType string, body []byte, want int) ([]byte, error) {
	res, err := s.cli.Do(ctx, []string{base}, func(target string) (*http.Request, error) {
		req, err := http.NewRequest(method, target+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", contentType)
		return req, nil
	})
	if err != nil {
		return nil, err
	}
	if res.Attempts > 1 {
		s.retries.Add(int64(res.Attempts - 1))
	}
	out, err := io.ReadAll(res.Resp.Body)
	res.Resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading the response: %w", method, path, err)
	}
	if res.Resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d (%s)", method, path, res.Resp.StatusCode, want, firstLine(out))
	}
	return out, nil
}

func firstLine(b []byte) string {
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	if len(line) > 200 {
		line = line[:200]
	}
	return line
}

// memWriter is the in-memory http.ResponseWriter the handler depth of
// the peeling replays requests into: the transport service runs in full,
// net/http's server and the loopback socket do not.
type memWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.header }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// serveInMemory runs one request through handler h without a socket.
func serveInMemory(ctx context.Context, h http.Handler, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, "http://inproc"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	w := &memWriter{header: http.Header{}}
	h.ServeHTTP(w, req)
	return w.code, w.body.Bytes(), nil
}

// routerCounter reads one counter from the router's own /metrics page.
func (s *stack) routerCounter(name string) (float64, error) {
	code, page, err := serveInMemory(context.Background(), s.router, http.MethodGet, "/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("router /metrics: status %d", code)
	}
	for _, line := range strings.Split(string(page), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("router /metrics has no %s", name)
}
