package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"
)

// The CPU calibration measures how fast this machine runs the solver's kind
// of code right now, so that solver latencies taken on a shared box can be
// expressed at one reference speed. It never calls repository code: a change
// to the solver cannot move it.
//
// Two kernels are read. chain is a dependent multiply-add through a 256 KiB
// table, which stays in the core's own cache and follows the core's speed;
// stream sums 8 MiB once, which follows the memory system. Regressing the log
// of the same solves' wall time on the logs of both readings, over 10 minutes
// of this box's own noise, gives exponents 0.77–0.89 for chain and 0.12–0.16
// for stream, on milp-search and milp-root ops alike; a reading is the
// product under exponents 0.85 and 0.15. Replaying 14 minutes of recorded ops
// and readings as 15 s runs, the spread of ops_per_s between runs is 4.1 %
// (search) and 6.7 % (root) raw, 2.5 % and 2.6 % normalised by chain alone,
// 6.5 % and 4.4 % by stream alone, 0.9 % and 2.0 % by the product.
const (
	chainWords  = 32 << 10 // 256 KiB of uint64
	chainSteps  = 200_000
	chainSlices = 5
	chainWeight = 0.85

	streamWords  = 1 << 20 // 8 MiB of uint64
	streamSlices = 3
	streamWeight = 1 - chainWeight
)

// chainRef and streamRef are what one slice of each kernel takes at reference
// speed: the medians on the 2.1 GHz Xeon this benchmark was defined on. A
// solver latency is reported as wall ÷ slowness, that is, in milliseconds at
// reference speed.
const (
	chainRef  = 270 * time.Microsecond
	streamRef = 1100 * time.Microsecond
)

// calibrator owns the kernels' working sets.
type calibrator struct {
	table  []uint64
	buf    []uint64
	slices [chainSlices]time.Duration
	sink   uint64
}

// newCalibrator allocates and writes the working sets: pages that were never
// written all map to the kernel's one zero page and would stream from cache.
func newCalibrator() *calibrator {
	c := &calibrator{table: make([]uint64, chainWords), buf: make([]uint64, streamWords)}
	for i := range c.buf {
		c.buf[i] = uint64(i) * 2654435761
	}
	c.read() // the first pass pays the page faults
	return c
}

// chain runs one slice of the core kernel: every step's table index and value
// depend on the step before.
func (c *calibrator) chain() {
	acc, idx := c.sink|1, uint64(0)
	for i := 0; i < chainSteps; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		j := (idx >> 33) % chainWords
		acc = acc*31 + c.table[j]
		c.table[j] = acc
	}
	c.sink = acc
}

// stream runs one slice of the memory kernel.
func (c *calibrator) stream() {
	var sum uint64
	for _, v := range c.buf {
		sum += v
	}
	c.sink += sum
}

// medianSlice times n ≤ chainSlices runs of kernel and returns the median
// one.
func (c *calibrator) medianSlice(n int, kernel func()) time.Duration {
	s := c.slices[:n]
	for i := range s {
		t0 := time.Now()
		kernel()
		s[i] = time.Since(t0)
	}
	return medianDuration(s)
}

// medianDuration sorts s and returns its middle element. The median drops a
// slice that was preempted: a reading estimates speed, not scheduling luck.
func medianDuration(s []time.Duration) time.Duration {
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}

// read runs both kernels and returns the machine's slowness.
func (c *calibrator) read() float64 {
	return slowness(c.medianSlice(chainSlices, c.chain), c.medianSlice(streamSlices, c.stream))
}

// slowness combines the two kernels' slice times into the factor by which
// solver code runs slower than at reference speed: 1 at reference speed, 2 on
// a machine half as fast.
func slowness(chain, stream time.Duration) float64 {
	return math.Pow(float64(chain)/float64(chainRef), chainWeight) *
		math.Pow(float64(stream)/float64(streamRef), streamWeight)
}

// calibUnstable is the disagreement between the readings before and after an
// op above which the op is measured again: the machine changed speed while
// the op ran, so no single factor describes it.
const calibUnstable = 0.20

// bracket is the pair of readings around one op.
type bracket struct{ before, after float64 }

// factor converts a wall time measured inside the bracket to reference
// speed.
func (b bracket) factor() float64 { return 2 / (b.before + b.after) }

// unstable reports whether the two readings disagree by more than
// calibUnstable of the smaller one.
func (b bracket) unstable() bool {
	lo, hi := min(b.before, b.after), max(b.before, b.after)
	return hi-lo > calibUnstable*lo
}

// The serving calibration does for the serving workloads what the CPU kernels
// do for the solver ones. A served hit spends about half its time in
// net/http, the loopback socket and goroutine wake-ups, and on a shared box
// that half drifts by ±20 % over minutes, which no amount of blocks in one
// run averages out. So each block of requests is bracketed by readings of an
// echo server: a handler that reads the request and writes a fixed reply,
// reached by the same clients over the same loopback in the same closed
// loop. It is net/http only, never repository code. The other half is the
// handler's own CPU work, which the CPU kernels follow. Regressing the log of
// a block's rate, median and p99 on the logs of both readings, over 1,461
// blocks of the three serving workloads, gives exponents 0.57–0.75 for the
// echo rate and 0.14–0.29 for the CPU reading; a serving reading is the
// product under exponents 0.75 and 0.25. Replayed as 15 s runs, the spread
// of ops_per_s between runs is 17–20 % raw, 2.8–6.6 % by echo alone, 3.5–4.8 %
// by the CPU kernels alone and 3.3–5.0 % by the product.
const (
	echoRequests = 1000 // per client and reading
	echoBytes    = 650  // request and reply size, about those of a served hit
	echoWeight   = 0.75
)

// echoRef is the echo server's rate at reference speed, in requests per
// second with both clients.
const echoRef = 36000.0

// echoCalibrator owns the echo server and the CPU kernels.
type echoCalibrator struct {
	srv  *httptest.Server
	body []byte
	cpu  *calibrator
}

func newEchoCalibrator() *echoCalibrator {
	reply := bytes.Repeat([]byte{'x'}, echoBytes)
	return &echoCalibrator{
		cpu:  newCalibrator(),
		body: bytes.Repeat([]byte{'y'}, echoBytes),
		srv: httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body) //nolint:errcheck // a short read shows as a failed request at the client
			w.Header().Set("Content-Type", "application/json")
			w.Write(reply) //nolint:errcheck // as above
		})),
	}
}

func (e *echoCalibrator) close() { e.srv.Close() }

// read sends echoRequests from every client at once, reads the CPU kernels
// and returns the serving path's speed: 1 at reference speed, 0.5 on a
// machine half as fast. Serving rates are reported as raw ÷ speed and serving
// latencies as raw × speed.
func (e *echoCalibrator) read(clients []*http.Client) (float64, error) {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c, client := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < echoRequests && errs[c] == nil; k++ {
				resp, err := client.Post(e.srv.URL, "application/json", bytes.NewReader(e.body))
				if err != nil {
					errs[c] = err
					break
				}
				_, errs[c] = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	rate := float64(echoRequests*len(clients)) / time.Since(start).Seconds()
	return servingSpeed(rate, e.cpu.read()), errors.Join(errs...)
}

// servingSpeed combines the echo server's rate and the CPU kernels' slowness.
func servingSpeed(echoRate, cpuSlowness float64) float64 {
	return math.Pow(echoRate/echoRef, echoWeight) * math.Pow(cpuSlowness, echoWeight-1)
}
