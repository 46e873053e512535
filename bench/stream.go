//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"macrobase/internal/ingest"
)

// streamResp is the part of mbserver's poll/stop JSON the harness
// reads: the wire contract, not the program's types.
type streamResp struct {
	Done       bool `json:"done"`
	Points     int  `json:"points"`
	Outliers   int  `json:"outliers"`
	DecayTicks int  `json:"decayTicks"`
	Cache      struct {
		FullHits         float64 `json:"fullHits"`
		MineReuses       float64 `json:"mineReuses"`
		FullMines        float64 `json:"fullMines"`
		DeltaMines       float64 `json:"deltaMines"`
		JournalOverflows float64 `json:"journalOverflows"`
		EarlyExits       float64 `json:"earlyExits"`
		SnapshotsElided  float64 `json:"snapshotsElided"`
	} `json:"cache"`
	Ingest []struct {
		Queued       float64 `json:"queued"`
		BlockedNanos float64 `json:"blockedNanos"`
	} `json:"ingest"`
	Explanations []explanation `json:"explanations"`
	Shards       *struct {
		Imbalance    float64 `json:"imbalance"`
		CoordRounds  float64 `json:"coordRounds"`
		RoutingEpoch float64 `json:"routingEpoch"`
		BucketMoves  float64 `json:"bucketMoves"`
	} `json:"shards"`
	Health struct {
		Status string `json:"status"`
	} `json:"health"`
}

type explanation struct {
	Attributes []struct {
		Column string `json:"Column"`
		Value  string `json:"Value"`
	} `json:"attributes"`
}

func (r *streamResp) blockedNanos() float64 {
	sum := 0.0
	for _, p := range r.Ingest {
		sum += p.BlockedNanos
	}
	return sum
}

// plantedShare is the fraction of the generator's planted
// first-column values that the explanations name.
func plantedShare(in *inputs, exps []explanation) float64 {
	named := make(map[string]bool)
	for _, e := range exps {
		for _, a := range e.Attributes {
			if a.Column == in.attrs[0] {
				named[a.Value] = true
			}
		}
	}
	found := 0
	for _, v := range in.planted {
		if named[v] {
			found++
		}
	}
	return float64(found) / float64(len(in.planted))
}

// session is a started server with a warmed-up push session on it.
type session struct {
	srv  *server
	base string // session URL
	push *client
	poll *client
	warm streamResp // the warm-up's poll: the baseline of cumulative counters
	// accepted is what every push response must contain: the server
	// took the whole frame.
	accepted []byte
}

func (s *session) close() {
	s.push.close()
	s.poll.close()
	s.srv.stop()
}

// setupStream is what setup_s times: exec of mbserver, /healthz ok,
// session started, warm-up frames pushed (the first model is trained
// and caches are filled) and a first poll served.
func setupStream(bin string, in *inputs, o *ops, tr *tracer, parent int) (*session, float64, error) {
	start := time.Now()
	srv, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	s := &session{srv: srv, push: newClient(o, tr), poll: newClient(o, tr)}
	s.accepted = []byte(fmt.Sprintf(`"accepted":%d,`, in.sp.framePoints))
	body, _, err := s.push.do(parent, "start", "POST", srv.url+"/stream/start", "application/json", in.startJSON())
	var started struct {
		ID string `json:"id"`
	}
	if err == nil {
		err = json.Unmarshal(body, &started)
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("starting session: %w", err)
	}
	s.base = srv.url + "/stream/" + started.ID
	for i := 0; i < in.sp.warmFrames; i++ {
		if err := s.pushFrame(parent, in.frames[i%len(in.frames)]); err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	body, _, err = s.poll.do(parent, "poll", "GET", s.base, "", nil)
	if err == nil {
		err = json.Unmarshal(body, &s.warm)
	}
	if err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up poll: %w", err)
	}
	return s, time.Since(start).Seconds(), nil
}

func (s *session) pushFrame(parent int, frame []byte) error {
	body, _, err := s.push.do(parent, "push", "POST", s.base+"/push", ingest.BinaryContentType, frame)
	if err == nil && !bytes.Contains(body, s.accepted) {
		err = fmt.Errorf("push accepted the wrong count: %.100s", body)
	}
	return err
}

// finish ends the stream as a producer would: it closes the producers
// (?eof=1), lets the session drain, stops it and returns the final
// answer.
func (s *session) finish(parent int) (*streamResp, error) {
	if _, _, err := s.push.do(parent, "eof", "POST", s.base+"/push?eof=1", ingest.BinaryContentType, nil); err != nil {
		return nil, err
	}
	if err := s.drain(parent); err != nil {
		return nil, err
	}
	body, _, err := s.poll.do(parent, "stop", "POST", s.base+"/stop", "", nil)
	if err != nil {
		return nil, err
	}
	final := &streamResp{}
	return final, json.Unmarshal(body, final)
}

// drain polls until the session reports done. How many polls that takes
// depends on the clock, so the wait counts as one operation, not one per
// poll: ops_attempted repeats exactly from run to run.
func (s *session) drain(parent int) (err error) {
	id := s.poll.tr.begin(parent, "drain")
	defer func() {
		s.poll.tr.end(id)
		if err != nil {
			err = fmt.Errorf("drain: %w", err)
		}
		s.poll.ops.record(err)
	}()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if err := s.poll.roundTrip("GET", s.base, "", nil); err != nil {
			return err
		}
		var r streamResp
		if err := json.Unmarshal(s.poll.buf.Bytes(), &r); err != nil || r.Done {
			return err
		}
	}
	return fmt.Errorf("session did not drain within 60 s of eof")
}

// segments is the number of equal-work slices of the measured window
// whose rates feed bench.segment_cv, the noisy-neighbour detector.
const segments = 20

// runStream measures one streaming workload and fills res.
func runStream(bin string, in *inputs, seconds float64, tr *tracer, res *result) error {
	sp := in.sp
	root := tr.begin(0, "workload:"+sp.name)
	defer tr.end(root)

	// Set-up, several times: the last one carries the measured window.
	var sess *session
	for i := 0; i < setupRuns; i++ {
		if sess != nil {
			sess.close()
		}
		s, secs, err := setupStream(bin, in, &res.ops, tr, root)
		if err != nil {
			return err
		}
		sess, res.setups = s, append(res.setups, secs)
	}
	defer sess.close()

	polls, frames := sp.work(seconds)
	res.answers, res.frames, res.points = polls, frames, frames*sp.framePoints

	selfCPU0 := selfCPUSeconds()
	cpu0, err := sess.srv.cpuSeconds()
	if err != nil {
		return err
	}

	// The poller serves one trigger at a time; the pusher never runs
	// more than one trigger ahead (see the window loop).
	trigger := make(chan struct{})
	served := make(chan struct{}, 1) // one poll outstanding at most
	pollerDone := make(chan struct{})
	pollMs := make([]float64, 0, polls)
	bodies := make([][]byte, 0, polls)
	go func() {
		defer close(pollerDone)
		for range trigger {
			body, d, err := sess.poll.do(root, "poll", "GET", sess.base, "", nil)
			if err == nil {
				pollMs = append(pollMs, d.Seconds()*1e3)
				bodies = append(bodies, append([]byte(nil), body...))
			}
			served <- struct{}{}
		}
	}()

	pushMs := make([]float64, 0, frames)
	segRates := make([]float64, 0, segments)
	var samples []cpuSample
	var pushWait time.Duration
	outstanding := false
	awaitPoll := func() {
		if outstanding {
			t := time.Now()
			<-served
			pushWait += time.Since(t)
			outstanding = false
		}
	}

	start := time.Now()
	segStart, segFrame, seg := start, 0, 1
	for i := 0; i < frames; i++ {
		if i%sp.pollEvery == 0 {
			// Trigger k+1 waits until poll k has returned, so the poll
			// count is exact and each poll overlaps pollEvery frames.
			awaitPoll()
			trigger <- struct{}{}
			outstanding = true
		}
		t := time.Now()
		if err := sess.pushFrame(root, in.frames[(sp.warmFrames+i)%len(in.frames)]); err == nil {
			pushMs = append(pushMs, time.Since(t).Seconds()*1e3)
		}
		if i+1 == seg*frames/segments {
			now := time.Now()
			segRates = append(segRates, float64((i+1-segFrame)*sp.framePoints)/now.Sub(segStart).Seconds())
			segStart, segFrame, seg = now, i+1, seg+1
			if tr != nil {
				cpu, _ := sess.srv.cpuSeconds()
				samples = append(samples, cpuSample{Frame: i + 1, WallNs: now.Sub(start).Nanoseconds(), CPUSec: cpu - cpu0})
			}
		}
	}
	awaitPoll()
	wall := time.Since(start).Seconds()
	cpu1, err := sess.srv.cpuSeconds()
	clientCPU := selfCPUSeconds() - selfCPU0
	close(trigger)
	<-pollerDone
	if err != nil {
		return err
	}

	final, err := sess.finish(root)
	if err != nil {
		return fmt.Errorf("ending the session: %w", err)
	}
	pushed := (sp.warmFrames + frames) * sp.framePoints
	res.ops.check(final.Points == pushed, "conservation: server counted %d points, %d were pushed", final.Points, pushed)
	res.ops.check(final.Health.Status == "ok", "health.status is %q", final.Health.Status)
	share := plantedShare(in, final.Explanations)
	res.ops.check(share >= 0.8, "only %.0f%% of the planted %s values are explained", share*100, in.attrs[0])

	rss, err := sess.srv.peakRSSMB()
	if err != nil {
		return err
	}

	// Counters are cumulative: the window's share is the last in-window
	// poll minus the warm-up poll, which covers exactly `polls` polls.
	last := sess.warm
	queued := make([]float64, 0, len(bodies))
	respBytes := 0
	for i, b := range bodies {
		var r streamResp
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("poll %d: %w", i, err)
		}
		q := 0.0
		for _, p := range r.Ingest {
			q += p.Queued
		}
		queued = append(queued, q)
		respBytes += len(b)
		if i == len(bodies)-1 {
			last = r
		}
	}
	cpu := cpu1 - cpu0
	pts := float64(res.points)
	res.serverCPUNsPerPoint = cpu * 1e9 / pts
	res.samples = samples
	res.e2e = map[string]float64{
		"setup_s":          median(res.setups),
		"points_per_s":     pts / wall,
		"points_per_cpu_s": ratio(pts, cpu),
		"answer_p50_ms":    median(pollMs),
		"peak_rss_mb":      rss,
	}
	c, w := last.Cache, sess.warm.Cache
	delta, full := c.DeltaMines-w.DeltaMines, c.FullMines-w.FullMines
	res.layer = map[string]float64{
		"mbserver.push_p50_ms":      median(pushMs),
		"mbserver.push_p99_ms":      percentile(pushMs, 0.99),
		"mbserver.poll_p90_ms":      percentile(pollMs, 0.90),
		"mbserver.poll_max_ms":      percentile(pollMs, 1),
		"mbserver.poll_resp_kb":     ratio(float64(respBytes)/1024, float64(len(bodies))),
		"mbserver.cpu_util":         cpu / wall,
		"ingest.blocked_share":      (final.blockedNanos() - sess.warm.blockedNanos()) / (wall * 1e9),
		"ingest.queued_mean":        mean(queued),
		"core.imbalance":            1,
		"core.routing_epoch":        0,
		"core.bucket_moves":         0,
		"core.coord_rounds":         0,
		"classify.outlier_rate":     ratio(float64(final.Outliers), float64(final.Points)),
		"explain.full_hits":         c.FullHits - w.FullHits,
		"explain.mine_reuses":       c.MineReuses - w.MineReuses,
		"explain.full_mines":        full,
		"explain.delta_mines":       delta,
		"explain.journal_overflows": c.JournalOverflows - w.JournalOverflows,
		"explain.early_exits":       c.EarlyExits - w.EarlyExits,
		"explain.delta_share":       ratio(delta, delta+full),
		"explain.n_explanations":    float64(len(final.Explanations)),
		"pipeline.snapshots_elided": c.SnapshotsElided - w.SnapshotsElided,
		"bench.push_wait_s":         pushWait.Seconds(),
		"bench.client_cpu_s":        clientCPU,
		"bench.segment_cv":          coeffVar(segRates),
	}
	if sh := final.Shards; sh != nil {
		res.layer["core.imbalance"] = sh.Imbalance
		res.layer["core.routing_epoch"] = sh.RoutingEpoch
		res.layer["core.bucket_moves"] = sh.BucketMoves
		res.layer["core.coord_rounds"] = sh.CoordRounds
	}
	return nil
}
