package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"sptrsv/internal/mesh"
	"sptrsv/internal/registry"
)

// TestConcurrentSolvesWithCancellations is the soak of the pooled
// request path: 8 clients over loopback, a ?timeout= on half of the
// requests — a third of those 1ns, the rest random up to 2ms, many of
// which expire queued or mid-sweep — and one NaN right-hand side among
// the rest. Every 200 must be bitwise the direct solve of its
// right-hand side, the NaN one must never be answered, and the
// goroutine count must come back to where it started. A handler that
// recycled a cancelled request's vectors — which the batcher may still
// be reading or writing — fails it with a wrong answer or, under -race,
// a reported race.
func TestConcurrentSolvesWithCancellations(t *testing.T) {
	const (
		nx, ny  = 31, 31
		clients = 8
		rounds  = 40
		nRHS    = 12
		poison  = nRHS - 1
	)
	ts, reg := newTestStack(t, "g", nx, ny, registry.Config{})
	n := nx * ny
	bodies := make([][]byte, nRHS)
	want := make([][]float64, nRHS)
	h, err := reg.Acquire("g")
	if err != nil {
		t.Fatal(err)
	}
	for k := range bodies {
		rhs := mesh.RandomRHS(n, 1, int64(k+1))
		if k == poison {
			rhs.Data[n/2] = math.NaN()
		} else if want[k], err = h.Server().Solve(context.Background(), append([]float64(nil), rhs.Data...)); err != nil {
			t.Fatal(err)
		}
		bodies[k] = EncodeBlock(nil, rhs)
	}
	h.Release()

	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	cli := &http.Client{Transport: tr}
	settle := func() int {
		tr.CloseIdleConnections()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := settle()

	var (
		mu                    sync.Mutex
		ok, timedOut, refused int
		wg                    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				k := rng.Intn(nRHS)
				q := ""
				switch rng.Intn(6) {
				case 0:
					q = "?timeout=1ns" // expired on arrival, on any scheduler
				case 1, 2:
					q = fmt.Sprintf("?timeout=%dus", 1+rng.Intn(2000))
				}
				resp, err := cli.Post(ts.URL+"/v1/solve/g"+q, "application/octet-stream", bytes.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if k == poison {
						t.Errorf("the NaN right-hand side was answered 200")
						return
					}
					x, err := DecodeBlock(out)
					if err != nil {
						t.Error(err)
						return
					}
					for i, v := range want[k] {
						if math.Float64bits(x.Data[i]) != math.Float64bits(v) {
							t.Errorf("client %d round %d: rhs %d row %d differs from the direct solve", c, r, k, i)
							return
						}
					}
					mu.Lock()
					ok++
					mu.Unlock()
				case http.StatusGatewayTimeout:
					mu.Lock()
					timedOut++
					mu.Unlock()
				case http.StatusInternalServerError:
					if k != poison {
						t.Errorf("rhs %d: 500 (%s)", k, out)
						return
					}
					mu.Lock()
					refused++
					mu.Unlock()
				default:
					t.Errorf("rhs %d: status %d (%s)", k, resp.StatusCode, out)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ok == 0 || timedOut == 0 {
		t.Fatalf("%d answered, %d timed out: the soak did not exercise both paths", ok, timedOut)
	}
	t.Logf("%d answered, %d timed out, %d NaN refused", ok, timedOut, refused)
	var now int
	for wait := 0; wait < 50; wait++ {
		if now = settle(); now <= base+2 {
			return
		}
	}
	t.Fatalf("goroutines grew from %d to %d", base, now)
}
