// Fixture: goroutine tracking (the PR 5 scatter-gather leak and PR 6
// untracked-probe class). A go statement must be lexically tied to a
// shutdown mechanism in its enclosing function.
package fixture

import (
	"context"
	"sync"
)

type server struct {
	wg   sync.WaitGroup
	done chan struct{}
}

func (s *server) loop()    {}
func (s *server) work()    {}
func (s *server) observe() {}

// leakLiteral is the bug shape: a fire-and-forget literal nothing owns.
func (s *server) leakLiteral() {
	go func() { // want `nothing owns its shutdown`
		s.work()
	}()
}

// leakNamed is the named-call variant: no WaitGroup Add in sight.
func (s *server) leakNamed() {
	go s.loop() // want `nothing owns its shutdown`
}

// trackedWaitGroup: the classic Add/Done pair.
func (s *server) trackedWaitGroup() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.work()
	}()
}

// trackedNamed: Add before a named-call goroutine.
func (s *server) trackedNamed() {
	s.wg.Add(1)
	go s.loop()
}

// trackedCloser: the goroutine closes a channel someone drains.
func (s *server) trackedCloser(ch chan int) {
	go func() {
		s.work()
		close(ch)
	}()
}

// trackedReceiver: the goroutine parks on a receive, so a close-signal
// (or the send it waits for) unparks it.
func (s *server) trackedReceiver(stop chan struct{}) {
	go func() {
		select {
		case <-s.done:
			s.work()
		case <-stop:
		}
	}()
}

// trackedCtx: the goroutine parks on ctx.Done().
func (s *server) trackedCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
		s.work()
	}()
}

// trackedResult: completion signal on a channel the enclosing function
// made — the maker owns the drain (the physical.Exec shape).
func (s *server) trackedResult() chan int {
	res := make(chan int, 1)
	go func() {
		s.work()
		res <- 1
	}()
	return res
}

// trackedResultOuter: the result channel is made two function layers up
// (the shard-read race's shape: a launch closure inside the racing
// function).
func (s *server) trackedResultOuter() chan int {
	res := make(chan int, 8)
	launch := func() {
		go func() {
			res <- 1
		}()
	}
	launch()
	return res
}

// untrackedSend: a send on a channel made elsewhere proves nothing — the
// maker may be long gone.
func (s *server) untrackedSend(res chan int) {
	go func() { // want `nothing owns its shutdown`
		res <- 1
	}()
}

// allowed is a deliberately detached goroutine with a justified escape
// (the fire-and-forget cancel-frame shape).
func (s *server) allowed() {
	//lint:allow gotrack fire-and-forget by design; bounded by the conn write deadline
	go s.observe()
}
