package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"
)

// settle runs two forced GCs, so that sync.Pool victims are gone too, and
// returns the heap still live.
func settle() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeSetUps times repeated fresh set-ups, each from a fresh Engine until
// the first post is answered, and tears each one down. The first answer is
// verified line by line against the reference; the others must equal it.
// It returns the verified answer's digest and every set-up's duration.
func timeSetUps(w *workload, cfg config) ([sha256.Size]byte, []time.Duration, error) {
	var digest [sha256.Size]byte
	var times []time.Duration
	begin := time.Now()
	for i := 0; i < cfg.minSetups || time.Since(begin) < cfg.setupBudget; i++ {
		runtime.GC()
		t0 := time.Now()
		in, err := setUp(w, nil)
		d := time.Since(t0)
		if err != nil {
			return digest, nil, fmt.Errorf("set-up: %w", err)
		}
		if i == 0 {
			digest, err = verify(w, in.rec.status, in.rec.body.Bytes())
			if err != nil {
				err = fmt.Errorf("set-up post does not match the reference: %w", err)
			}
		} else if in.rec.status != http.StatusOK || sha256.Sum256(in.rec.body.Bytes()) != digest {
			err = fmt.Errorf("set-up %d: answer differs from the verified one (status %d)", i, in.rec.status)
		}
		if serr := in.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return digest, nil, err
		}
		times = append(times, d)
		if len(times) >= 400 {
			break
		}
	}
	return digest, times, nil
}

// opPayloads pre-encodes the registrations of one churn episode, so the
// timed ops do no client-side encoding.
func opPayloads(w *workload) ([][]byte, error) {
	if !w.churn {
		return nil, nil
	}
	out := make([][]byte, w.episodeOps)
	for i := range out {
		b, err := json.Marshal(churnRegistration(w, i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// doOp runs op i on in: on the churn workload a registration, then the
// feed post. It returns the op's latency and whether the op succeeded; the
// answer is checked against the verified digest after the clock stops.
func doOp(in *instance, w *workload, payloads [][]byte, i int, digest [sha256.Size]byte) (time.Duration, bool) {
	t0 := time.Now()
	ok := true
	if w.churn {
		ok = in.do(http.MethodPost, "/v1/queries", payloads[i]) == nil && in.rec.status == http.StatusCreated
	}
	ok = ok && in.post(w) == nil
	d := time.Since(t0)
	return d, ok && okAnswer(in, digest)
}

// okAnswer reports whether the last answer is a 200 equal to the verified
// one.
func okAnswer(in *instance, digest [sha256.Size]byte) bool {
	return in.rec.status == http.StatusOK && sha256.Sum256(in.rec.body.Bytes()) == digest
}

// window is a run of consecutive timed ops on one server. Each figure is
// taken per window and reported as the median over windows, so that a
// burst of interference from outside the process spoils a window or two,
// not the result.
type window struct {
	lat   []time.Duration
	alloc uint64 // bytes allocated during the window's ops
}

// maxOps bounds the timed ops of one server that the live heap figure
// stays exact for; a longer run only adds noise to live_heap_mb.
const maxOps = 1 << 16

// episode is one server's share of the ops.
type episode struct {
	windows           []window
	attempted, failed int    // every op, the set-up post and warm-up included
	live              uint64 // heap retained at the end, over the heap before set-up
}

// count tallies one op.
func (ep *episode) count(ok bool) {
	ep.attempted++
	if !ok {
		ep.failed++
	}
}

// runEpisode sets a fresh server up and runs windows of size timed ops
// while more reports true, then measures the heap the server retains and
// tears it down. A churn episode is one window of w.episodeOps ops; the
// others warm up with three untimed ops first.
func runEpisode(w *workload, payloads [][]byte, digest [sha256.Size]byte, size int,
	more func(windows int) bool) (episode, error) {
	// The latency samples are allocated before the baseline, so that the
	// live heap counts the server alone.
	capacity := maxOps
	if w.churn {
		capacity = size
	}
	lat := make([]time.Duration, 0, capacity)
	ep := episode{windows: make([]window, 0, capacity/size+1)}
	base := settle()
	in, err := setUp(w, nil)
	if err != nil {
		return ep, err
	}
	ep.count(okAnswer(in, digest))
	i := 0
	if !w.churn {
		for ; i < 3; i++ {
			_, ok := doOp(in, w, payloads, i, digest)
			ep.count(ok)
		}
	}
	for more(len(ep.windows)) {
		start, a0 := len(lat), totalAlloc()
		for ; len(lat)-start < size; i++ {
			d, ok := doOp(in, w, payloads, i, digest)
			ep.count(ok)
			lat = append(lat, d)
		}
		ep.windows = append(ep.windows, window{lat: lat[start:], alloc: totalAlloc() - a0})
	}
	// The client's response buffer is not the server's heap.
	in.rec.body = bytes.Buffer{}
	if live := settle(); live > base {
		ep.live = live - base
	}
	return ep, in.stop()
}

// timedEpisodes runs whole windows of timed ops for at least the given
// time. A window has cfg.windowOps ops, at least 100 so that ten samples
// lie beyond its 90th percentile. The cost of a churn op grows with the
// alphabet, so a churn run is a sequence of episodes of w.episodeOps ops,
// each from a fresh server: a count of ops, never a duration. The other
// workloads run one server.
func timedEpisodes(w *workload, cfg config, seconds time.Duration, payloads [][]byte,
	digest [sha256.Size]byte) ([]episode, time.Duration, error) {
	begin := time.Now()
	size, more := cfg.windowOps, func(windows int) bool { return windows == 0 || time.Since(begin) < seconds }
	if w.churn {
		size, more = w.episodeOps, func(windows int) bool { return windows == 0 }
	}
	var eps []episode
	for {
		ep, err := runEpisode(w, payloads, digest, size, more)
		if err != nil {
			return nil, 0, err
		}
		eps = append(eps, ep)
		if !w.churn || time.Since(begin) >= seconds {
			return eps, time.Since(begin), nil
		}
	}
}

// measure is the untraced run: repeated set-ups for setup_s, then the timed
// ops of one closed-loop client.
func measure(w *workload, cfg config, info *runInfo) (result, error) {
	digest, setups, err := timeSetUps(w, cfg)
	if err != nil {
		return result{}, err
	}
	payloads, err := opPayloads(w)
	if err != nil {
		return result{}, err
	}
	eps, elapsed, err := timedEpisodes(w, cfg, cfg.seconds, payloads, digest)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}}
	var p50, p90, rate, alloc, live []float64
	for _, ep := range eps {
		res.Attempted += ep.attempted
		res.Failed += ep.failed
		live = append(live, float64(ep.live)/(1<<20))
		for _, win := range ep.windows {
			n := len(win.lat)
			info.TimedOps += n
			lat := sorted(win.lat)
			var busy time.Duration
			for _, d := range lat {
				busy += d
			}
			p50 = append(p50, ms(percentile(lat, 0.50)))
			p90 = append(p90, ms(percentile(lat, 0.90)))
			rate = append(rate, float64(len(w.body)*n)/busy.Seconds()/1e6)
			alloc = append(alloc, float64(win.alloc)/float64(n)/1024)
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics["throughput_mbps"] = metric{medianFloat(rate), "MB/s"}
	res.Metrics["latency_p50_ms"] = metric{medianFloat(p50), "ms"}
	res.Metrics["latency_p90_ms"] = metric{medianFloat(p90), "ms"}
	res.Metrics["setup_s"] = metric{median(setups).Seconds(), "s"}
	res.Metrics["alloc_kb_per_op"] = metric{medianFloat(alloc), "KB"}
	res.Metrics["live_heap_mb"] = metric{medianFloat(live), "MB"}
	info.Windows, info.Setups, info.Seconds = len(p50), len(setups), elapsed.Seconds()
	if w.churn {
		info.Episodes = len(eps)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(ds []time.Duration) time.Duration { return percentile(sorted(ds), 0.5) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
