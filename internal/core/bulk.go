package core

import (
	"context"
	"runtime"
	"sync"

	"xpe/internal/hedge"
)

// BulkSelect evaluates the query over many documents concurrently and
// returns one Result per document, in input order. The compiled query is
// immutable after compilation except for the recycled evaluation arenas
// and the lazily-determinized mirror automaton, both of which are safe
// under concurrency (sync.Pool; the mirror's reads are lock-free and its
// misses serialized, see mirrorDFA); a server answering the same query
// over a document stream is the intended shape. When a
// metrics sink is attached (SetMetrics), every worker's Select flushes
// into it atomically, so bulk runs are observable while in flight.
func (cq *CompiledQuery) BulkSelect(docs []hedge.Hedge, workers int) []*Result {
	out, _ := cq.BulkSelectCtx(context.Background(), docs, workers)
	return out
}

// BulkSelectCtx is BulkSelect under a context: when ctx is canceled the
// remaining documents are abandoned and ctx.Err() is returned alongside the
// partial results (entries for unevaluated documents are nil).
func (cq *CompiledQuery) BulkSelectCtx(ctx context.Context, docs []hedge.Hedge, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	out := make([]*Result, len(docs))
	if workers <= 1 {
		for i, d := range docs {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			out[i] = cq.Select(d)
		}
		return out, ctx.Err()
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = cq.Select(docs[i])
			}
		}()
	}
	var err error
dispatch:
	for i := range docs {
		select {
		case next <- i:
		case <-ctx.Done():
			err = ctx.Err()
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if err == nil {
		err = ctx.Err()
	}
	return out, err
}
