// Package machine simulates a distributed-memory message-passing
// multicomputer (the paper's Cray T3D) with virtual time. Each processor
// runs as a goroutine with a private logical clock; point-to-point sends
// charge the classic ts + tw·words model, and local computation charges a
// two-parameter memory/flop model that reproduces the BLAS-level effects
// the paper reports (single-RHS solves are memory-bound, multi-RHS solves
// and factorization approach the flop rate).
//
// All algorithms execute their real numerics on real data — only time is
// virtual — so a simulated run simultaneously verifies correctness and
// yields deterministic, host-independent performance measurements for any
// processor count.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// CostModel holds the machine constants, in seconds.
type CostModel struct {
	Ts    float64 // message startup latency
	Tw    float64 // transfer time per 8-byte word
	Tm    float64 // memory time per operand element touched (strided access)
	Tc    float64 // compute time per flop
	Tcopy float64 // memory time per word moved sequentially (pack/copy)
}

// T3D returns constants calibrated to the paper's Cray T3D measurements:
// a sequential supernodal solve reaches ≈5.5 MFLOPS with one right-hand
// side and ≈30 MFLOPS with thirty (memory-bound → flop-bound), and the
// multifrontal factorization reaches ≈35 MFLOPS (cf. the single-processor
// columns of the paper's results table).
func T3D() CostModel {
	return CostModel{
		Ts:    2e-6,
		Tw:    25e-9,
		Tm:    310e-9,
		Tc:    28e-9,
		Tcopy: 40e-9,
	}
}

// Zero returns a cost model that charges nothing; useful in tests that
// only check numerical correctness of a parallel algorithm.
func Zero() CostModel { return CostModel{} }

// message is a tagged payload with its virtual arrival time.
type message struct {
	tag    int
	data   []float64
	idata  []int
	arrive float64
}

// abortPanic is thrown inside blocked receives when the machine aborts;
// Run recovers it silently on processors other than the one that failed.
type abortPanic struct{}

// mailbox is an unbounded FIFO of messages for one (src,dst) pair.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []message
	aborted *atomic.Bool
}

func newMailbox(aborted *atomic.Bool) *mailbox {
	mb := &mailbox{aborted: aborted}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.cond.Signal()
	mb.mu.Unlock()
}

// getTag removes and returns the first queued message with the given tag,
// blocking until one arrives. Matching is FIFO within a tag, like MPI tag
// matching: logically distinct message streams between the same processor
// pair use distinct tags and may be consumed in either order.
func (mb *mailbox) getTag(tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		if mb.aborted.Load() {
			panic(abortPanic{})
		}
		for i, m := range mb.q {
			if m.tag == tag {
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// Machine is a virtual multicomputer of P processors.
type Machine struct {
	P       int
	Model   CostModel
	boxes   [][]*mailbox // [src][dst]
	procs   []*Proc
	aborted atomic.Bool
}

// New creates a machine with p processors. p must be a power of two (the
// subtree-to-subcube mapping and the hypercube collectives require it).
func New(p int, model CostModel) *Machine {
	if p <= 0 || p&(p-1) != 0 {
		panic(fmt.Sprintf("machine: processor count %d is not a power of two", p))
	}
	m := &Machine{P: p, Model: model}
	m.boxes = make([][]*mailbox, p)
	for s := 0; s < p; s++ {
		m.boxes[s] = make([]*mailbox, p)
		for d := 0; d < p; d++ {
			m.boxes[s][d] = newMailbox(&m.aborted)
		}
	}
	m.procs = make([]*Proc, p)
	for r := 0; r < p; r++ {
		m.procs[r] = &Proc{machine: m, Rank: r}
	}
	return m
}

// Run executes f on every processor concurrently and waits for all of
// them. A panic on any processor is re-raised (annotated with the rank)
// after the others finish or deadlock-free cleanup. Run may be called
// multiple times; clocks carry over between calls.
func (m *Machine) Run(f func(p *Proc)) {
	var wg sync.WaitGroup
	panics := make([]any, m.P)
	for r := 0; r < m.P; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					if _, ok := e.(abortPanic); ok {
						return // another processor failed; die silently
					}
					panics[p.Rank] = e
					m.abort()
				}
			}()
			f(p)
		}(m.procs[r])
	}
	wg.Wait()
	for r, e := range panics {
		if e != nil {
			panic(fmt.Sprintf("machine: processor %d panicked: %v", r, e))
		}
	}
}

// abort marks the machine dead and wakes every blocked receive, which
// then raises abortPanic. A machine must be Reset before reuse.
func (m *Machine) abort() {
	if m.aborted.Swap(true) {
		return
	}
	for _, row := range m.boxes {
		for _, mb := range row {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		}
	}
}

// Abort lets an algorithm terminate the whole machine cooperatively (e.g.
// on a numerical failure discovered by one processor): every other
// processor's pending or future receive aborts silently, and Run returns.
// Reset reinstates the machine.
func (p *Proc) Abort() { p.machine.abort() }

// Aborted reports whether the machine has been aborted.
func (m *Machine) Aborted() bool { return m.aborted.Load() }

// Reset zeroes all clocks and flop counters, drops any undelivered
// messages, and clears an abort.
func (m *Machine) Reset() {
	for _, p := range m.procs {
		p.clock = 0
		p.flops = 0
		p.commTime = 0
	}
	for s := range m.boxes {
		for d := range m.boxes[s] {
			m.boxes[s][d].q = nil
		}
	}
	m.aborted.Store(false)
}

// MaxTime returns the maximum processor clock — the parallel runtime of
// everything executed so far.
func (m *Machine) MaxTime() float64 {
	t := 0.0
	for _, p := range m.procs {
		if p.clock > t {
			t = p.clock
		}
	}
	return t
}

// TotalFlops returns the machine-wide flop count charged so far.
func (m *Machine) TotalFlops() int64 {
	var f int64
	for _, p := range m.procs {
		f += p.flops
	}
	return f
}

// TotalCommTime returns the sum over processors of time spent in
// communication calls (send overhead plus receive waiting). Divided by
// MaxTime·P this approximates the overhead fraction T_o/(p·T_P).
func (m *Machine) TotalCommTime() float64 {
	var t float64
	for _, p := range m.procs {
		t += p.commTime
	}
	return t
}

// MaxOf returns the latest of a set of per-processor clocks. It panics
// with a descriptive message on an empty slice (a zero-processor machine
// has no clocks to compare).
func MaxOf(clocks []float64) float64 {
	if len(clocks) == 0 {
		panic("machine: MaxOf of empty clock slice (zero-processor machine?)")
	}
	mx := clocks[0]
	for _, v := range clocks[1:] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// MinOf returns the earliest of a set of per-processor clocks. It panics
// with a descriptive message on an empty slice.
func MinOf(clocks []float64) float64 {
	if len(clocks) == 0 {
		panic("machine: MinOf of empty clock slice (zero-processor machine?)")
	}
	mn := clocks[0]
	for _, v := range clocks[1:] {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// PhaseTime returns the elapsed virtual time of a phase measured between
// two sets of per-processor clocks: markClocks sampled right after the
// phase's opening barrier and endClocks sampled after its closing
// barrier. The phase starts when the *earliest* processor leaves the
// opening barrier and ends when the *latest* one passes the closing
// barrier, so the elapsed time is MaxOf(end) − MinOf(mark); taking the
// maximum of the marks instead would understate the phase whenever the
// barrier releases processors at skewed clocks.
func PhaseTime(markClocks, endClocks []float64) float64 {
	return MaxOf(endClocks) - MinOf(markClocks)
}

// Proc is one virtual processor. Its methods must only be called from the
// goroutine running it (inside Machine.Run).
type Proc struct {
	machine  *Machine
	Rank     int
	clock    float64
	flops    int64
	commTime float64
}

// P returns the machine's processor count.
func (p *Proc) P() int { return p.machine.P }

// Clock returns the processor's current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Flops returns the flops charged on this processor so far.
func (p *Proc) Flops() int64 { return p.flops }

// Charge accounts for local computation touching elems distinct operand
// elements and performing flops floating-point operations.
func (p *Proc) Charge(elems, flops int64) {
	m := p.machine.Model
	p.clock += float64(elems)*m.Tm + float64(flops)*m.Tc
	p.flops += flops
}

// ChargeCopy accounts for a sequential memory move of the given number of
// words (packing buffers, gather/scatter of contiguous vector pieces) —
// much cheaper per word than the strided accesses Charge models.
func (p *Proc) ChargeCopy(words int64) {
	p.clock += float64(words) * p.machine.Model.Tcopy
}

// Elapse advances the clock by the given number of seconds.
func (p *Proc) Elapse(seconds float64) { p.clock += seconds }

// send is the common implementation for float and int payloads.
func (p *Proc) send(dst, tag int, data []float64, idata []int) {
	if dst == p.Rank {
		panic("machine: send to self")
	}
	words := len(data) + len(idata)
	m := p.machine.Model
	dt := m.Ts + m.Tw*float64(words)
	p.clock += dt
	p.commTime += dt
	msg := message{tag: tag, arrive: p.clock}
	if data != nil {
		msg.data = append([]float64(nil), data...)
	}
	if idata != nil {
		msg.idata = append([]int(nil), idata...)
	}
	p.machine.boxes[p.Rank][dst].put(msg)
}

// Send transmits a float64 payload to dst with the given tag. The buffer
// is copied; the caller may reuse it. Sending is asynchronous: the sender
// is charged ts + tw·words and continues.
func (p *Proc) Send(dst, tag int, data []float64) { p.send(dst, tag, data, nil) }

// SendMixed transmits both an int and a float64 payload in one message.
func (p *Proc) SendMixed(dst, tag int, idata []int, data []float64) {
	p.send(dst, tag, data, idata)
}

// recv blocks until a message from src with the given tag arrives and
// advances the clock to the arrival time.
func (p *Proc) recv(src, tag int) message {
	if src == p.Rank {
		panic("machine: recv from self")
	}
	msg := p.machine.boxes[src][p.Rank].getTag(tag)
	if msg.arrive > p.clock {
		p.commTime += msg.arrive - p.clock
		p.clock = msg.arrive
	}
	return msg
}

// Recv receives a float64 payload from src; the message's tag must match.
func (p *Proc) Recv(src, tag int) []float64 { return p.recv(src, tag).data }

// RecvMixed receives a message carrying both payloads.
func (p *Proc) RecvMixed(src, tag int) ([]int, []float64) {
	m := p.recv(src, tag)
	return m.idata, m.data
}
