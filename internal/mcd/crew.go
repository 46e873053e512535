package mcd

import (
	"sync"
	"sync/atomic"
)

// crew is one fit's helpers: goroutines that take candidates' C-steps
// beside the fitting goroutine. Each helper owns a cStepper sized for the
// fit's full dataset and aims it at each stage's points and h. A stage
// hands out its candidates one at a time to whichever goroutine asks
// next, so how they split between goroutines is timing, and what each
// comes out as is not: a C-step reads only its candidate and the stage's
// points.
type crew struct {
	wake    chan struct{} // one token per helper per stage; closed by stop
	helpers int
	exited  sync.WaitGroup

	// The stage in progress. run writes these before it wakes the
	// helpers and reads the results after done.
	lead     *cStepper // the stage's points and h, and the caller's stepper
	cands    []candidate
	work     func(s *cStepper, c *candidate) // (*cStepper).stepTwice, or a test's probe
	next     atomic.Int64                    // the next candidate to hand out
	done     sync.WaitGroup
	mu       sync.Mutex
	panicked any // the first panic of the stage, under mu
}

// startCrew starts helpers goroutines over the fit's points and h; stop
// ends them.
func startCrew(pts [][]float64, h, helpers int) *crew {
	c := &crew{wake: make(chan struct{}, helpers), helpers: helpers}
	c.exited.Add(helpers)
	for i := 0; i < helpers; i++ {
		go c.help(pts, h)
	}
	return c
}

// help is a helper's loop: it joins every stage it is woken for, until
// stop closes the wake channel.
func (c *crew) help(pts [][]float64, h int) {
	defer c.exited.Done()
	s := newCStepper(pts, h)
	for range c.wake {
		s.aim(c.lead.pts, c.lead.h)
		c.share(s)
		c.done.Done()
	}
}

// run calls work once for each candidate, on lead (on the calling
// goroutine) or on a helper's stepper aimed at lead's points and h. Once
// every goroutine has left the stage it re-raises the first panic any of
// them hit.
func (c *crew) run(lead *cStepper, cands []candidate, work func(s *cStepper, c *candidate)) {
	c.lead, c.cands, c.work, c.panicked = lead, cands, work, nil
	c.next.Store(0)
	c.done.Add(c.helpers)
	for i := 0; i < c.helpers; i++ {
		c.wake <- struct{}{}
	}
	c.share(lead)
	c.done.Wait()
	c.lead, c.cands, c.work = nil, nil, nil
	if p := c.panicked; p != nil {
		panic(p)
	}
}

// share works the stage's candidates on s, one at a time, until none is
// left to hand out. A panic ends the handout for every goroutine and is kept
// for run.
func (c *crew) share(s *cStepper) {
	defer func() {
		if p := recover(); p != nil {
			c.next.Store(int64(len(c.cands)))
			c.mu.Lock()
			if c.panicked == nil {
				c.panicked = p
			}
			c.mu.Unlock()
		}
	}()
	for i := c.next.Add(1) - 1; i < int64(len(c.cands)); i = c.next.Add(1) - 1 {
		c.work(s, &c.cands[i])
	}
}

// stop ends the helpers and waits until each has left its loop.
func (c *crew) stop() {
	close(c.wake)
	c.exited.Wait()
}
