// Package batch is the fleet-scale query planner: it takes a stream
// of resolved work items — each carrying a substrate grouping key, a
// once-per-group Prepare, and a per-item Eval — plans them a window
// at a time, evaluates each window's groups concurrently across a
// worker pool (a group prepares once, then fans its evals across the
// same pool), and emits per-item results in input order.
//
// The planner owns none of the domain: the serving layer resolves
// HTTP items into Work (keys are canonical (design, config[, trace])
// fingerprints; Prepare builds or fetches the group's analyzer and
// warms its engine; Eval runs one zero-alloc query). What the planner
// guarantees:
//
//   - Prepare runs exactly once per distinct key per run, even when
//     the key recurs across windows — later windows reuse the
//     prepared value. One request's groups never share state with
//     another request's.
//   - A failed or panicking Prepare fails that group's items — with
//     an honest per-item error — and nothing else; the stream
//     continues.
//   - A failed or panicking Eval fails exactly its own item (and the
//     items sharing its eval unit, when the work carries an EvalKey —
//     identical queries share one honest answer, including a failed
//     one).
//   - Items with equal (Key, EvalKey) evaluate once per run: fleet
//     sweeps repeat the same canonical query across thousands of
//     units, and the planner answers the duplicates from the first
//     evaluation instead of re-running the query per item.
//   - Results are emitted in item order within each window, and
//     windows in input order, so memory is bounded by the window
//     size regardless of batch length.
//   - Workers: 1 is the exact serial path: prepare the first group,
//     run its evals in order, then the next group, and so on.
//   - Cancellation is checked between windows, before each group and
//     between evals: items not yet evaluated when ctx dies fail with
//     ctx's error, every admitted item gets exactly one Result, and
//     Run returns ctx.Err().
package batch

import (
	"context"
	"errors"
	"fmt"

	"obdrel/internal/fault"
	"obdrel/internal/obs"
	"obdrel/internal/par"
)

// Work is one resolved batch item. Exactly one of Err or
// (Key, Prepare, Eval) is meaningful: a non-nil Err marks an item
// that failed resolution (bad design name, invalid config) and is
// reported as a per-item error without planning.
type Work struct {
	// Index is the item's position in the request; Results carry it
	// back so streams can interleave windows without losing identity.
	Index int
	// Key groups items sharing a substrate: items with equal keys
	// evaluate against one prepared value.
	Key string
	// Prepare builds the group's shared state (idempotent; called
	// once per distinct Key per Run).
	Prepare func(ctx context.Context) (any, error)
	// Eval answers this item's query against the prepared state.
	Eval func(ctx context.Context, prepared any) (any, error)
	// EvalKey, when non-empty, canonically names the query so items
	// with equal (Key, EvalKey) share one Eval call per run — the
	// answer (or error) fans out to every duplicate. Empty means the
	// item's Eval is not shareable and always runs.
	EvalKey string
	// Err marks a resolution failure.
	Err error
}

// Result is one item's outcome.
type Result struct {
	Index int
	Value any
	Err   error
}

// Stats counts one Run's work.
type Stats struct {
	// Items admitted, split into OK and Failed results.
	Items, OK, Failed int64
	// Groups is the number of distinct keys prepared; Reused counts
	// items that shared a successfully prepared group beyond the item
	// that prepared it (the substrate amortization the planner exists
	// for). Items of a group whose Prepare failed never count.
	Groups, Reused int64
	// SharedEvals counts items answered from another item's eval —
	// duplicates by (Key, EvalKey) that did not run their own query.
	SharedEvals int64
	// Windows is the number of planning windows processed.
	Windows int64
}

// Options tunes a Run.
type Options struct {
	// Window is the number of items planned and held in memory at a
	// time (default 256).
	Window int
	// Workers bounds parallelism at both levels: a window's groups
	// run on up to Workers tasks, and each group's evals fan over up
	// to Workers more (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Flush, when set, runs after each window's results are emitted —
	// the streaming hook that pushes the window to the client.
	Flush func()
}

// Source yields the next work item. ok=false ends the stream
// cleanly; a non-nil error ends it fatally after the items already
// yielded are evaluated and emitted (a malformed mid-stream item must
// not discard the valid items before it).
type Source func() (w Work, ok bool, err error)

// group is one window's share of a key's items.
type group struct {
	key   string
	items []int // indexes into the window slice
}

// evalOut is one evaluated query, shareable across duplicate items.
type evalOut struct {
	value any
	err   error
}

// evalUnit is one distinct query within a group: the items answered
// by a single Eval call.
type evalUnit struct {
	key      string // "" = unshareable, always one item
	items    []int  // indexes into the window slice
	out      *evalOut
	fromMemo bool
}

// prep is one key's Prepare outcome.
type prep struct {
	value any
	err   error
}

// groupOut is what one group's task leaves for the window's commit.
type groupOut struct {
	err   error // ctx's error when the group never started
	prep  *prep
	fresh bool // prep was made by this task, not an earlier window
	units []*evalUnit
}

// memoCap bounds the per-run eval memo so a pathological batch of
// all-distinct queries cannot grow it without bound; past the cap,
// duplicates still share within their window, just not across
// windows.
const memoCap = 65536

// partitionEvals splits a group's items into eval units by EvalKey,
// first-seen order; unkeyed items each get their own unit.
func partitionEvals(items []Work, g *group) []*evalUnit {
	units := make([]*evalUnit, 0, len(g.items))
	byKey := make(map[string]*evalUnit)
	for _, i := range g.items {
		k := items[i].EvalKey
		if k == "" {
			units = append(units, &evalUnit{items: []int{i}})
			continue
		}
		u := byKey[k]
		if u == nil {
			u = &evalUnit{key: k}
			byKey[k] = u
			units = append(units, u)
		}
		u.items = append(u.items, i)
	}
	return units
}

// Run drains src through the planner, calling emit exactly once per
// admitted item. It returns when the source ends, the source fails,
// emit fails (client gone — evaluation stops), or ctx dies.
func Run(ctx context.Context, src Source, emit func(Result) error, opts Options) (Stats, error) {
	window := opts.Window
	if window <= 0 {
		window = 256
	}
	var stats Stats
	// prepared carries each distinct key's Prepare outcome across
	// windows: value or error, so a failed group fails fast on
	// recurrence instead of re-preparing.
	prepared := make(map[string]*prep)
	// evalMemo carries distinct (Key, EvalKey) answers across windows,
	// keyed by the concatenated pair. Written only after a window's
	// fan-out (single-threaded); workers read it without locks.
	evalMemo := make(map[string]*evalOut)

	srcDone := false
	var srcErr error
	for !srcDone {
		// Plan: fill one window.
		items := make([]Work, 0, window)
		for len(items) < window {
			w, ok, err := src()
			if err != nil {
				srcErr = err
				srcDone = true
				break
			}
			if !ok {
				srcDone = true
				break
			}
			items = append(items, w)
		}
		if len(items) == 0 {
			break
		}
		stats.Windows++
		stats.Items += int64(len(items))

		_, plan := obs.StartSpan(ctx, "batch.plan")
		groups := make([]*group, 0, 8)
		byKey := make(map[string]*group, 8)
		results := make([]Result, len(items))
		for i, w := range items {
			results[i].Index = w.Index
			if w.Err != nil {
				results[i].Err = w.Err
				continue
			}
			g := byKey[w.Key]
			if g == nil {
				g = &group{key: w.Key}
				byKey[w.Key] = g
				groups = append(groups, g)
			}
			g.items = append(g.items, i)
		}
		plan.SetAttr("items", len(items))
		plan.SetAttr("groups", len(groups))
		plan.End()

		// Evaluate the window's groups concurrently: each group task
		// prepares its key if it is new, then fans its evals. The
		// prepared map and the memo are read-only until the fan-out
		// returns; each key is one group per window, so no two tasks
		// prepare the same key.
		outs := make([]groupOut, len(groups))
		par.For(opts.Workers, len(groups), func(gi int) {
			g, o := groups[gi], &outs[gi]
			if o.err = ctx.Err(); o.err != nil {
				return
			}
			o.prep = prepared[g.key]
			if o.prep == nil {
				o.prep, o.fresh = &prep{}, true
				o.prep.value, o.prep.err = runPrepare(ctx, g.key, items[g.items[0]].Prepare)
			}
			if o.prep.err != nil {
				return
			}
			o.units = partitionEvals(items, g)
			par.For(opts.Workers, len(o.units), func(k int) {
				evalUnitOf(ctx, items, evalMemo, g.key, o.units[k], o.prep.value)
			})
		})

		// Commit in group order, single-threaded again: prepared
		// groups, fanned-out answers, fresh answers to the memo.
		for gi, g := range groups {
			o := &outs[gi]
			if o.fresh {
				prepared[g.key] = o.prep
				stats.Groups++
			}
			err := o.err
			if err == nil {
				err = o.prep.err
			}
			if err != nil {
				for _, i := range g.items {
					results[i].Err = err
				}
				continue
			}
			stats.Reused += int64(len(g.items))
			if o.fresh {
				stats.Reused--
			}
			for _, u := range o.units {
				for _, i := range u.items {
					results[i].Value, results[i].Err = u.out.value, u.out.err
				}
				if u.fromMemo {
					stats.SharedEvals += int64(len(u.items))
				} else {
					stats.SharedEvals += int64(len(u.items) - 1)
					// Deterministic answers and errors are shareable;
					// cancellation is a property of this run's clock,
					// not of the query, so it never enters the memo.
					cancelled := errors.Is(u.out.err, context.Canceled) || errors.Is(u.out.err, context.DeadlineExceeded)
					if u.key != "" && !cancelled && len(evalMemo) < memoCap {
						evalMemo[g.key+"\x00"+u.key] = u.out
					}
				}
			}
		}

		// Emit in item order (results was filled in input order); an
		// emit error means the client is gone and the whole run stops.
		for _, r := range results {
			if r.Err != nil {
				stats.Failed++
			} else {
				stats.OK++
			}
			if err := emit(r); err != nil {
				return stats, err
			}
		}
		if opts.Flush != nil {
			opts.Flush()
		}
		if err := ctx.Err(); err != nil {
			return stats, err
		}
	}
	return stats, srcErr
}

// runPrepare runs a group's Prepare under a batch.group span with
// panic containment: a panicking substrate build fails its group, not
// the stream.
func runPrepare(ctx context.Context, key string, prepare func(context.Context) (any, error)) (v any, err error) {
	gctx, sp := obs.StartSpan(ctx, "batch.group")
	if sp != nil {
		sp.SetAttr("key", key)
		defer sp.End()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fault.Permanent.Wrap(fmt.Errorf("batch: group prepare panicked: %v", r))
		}
	}()
	return prepare(gctx)
}

// evalUnitOf answers one eval unit of group key: from the cross-window
// memo when the unit's query was answered before, else by running the
// first item's Eval under a batch.item span.
func evalUnitOf(ctx context.Context, items []Work, memo map[string]*evalOut, key string, u *evalUnit, prepared any) {
	if err := ctx.Err(); err != nil {
		u.out = &evalOut{err: err}
		return
	}
	if u.key != "" {
		if m := memo[key+"\x00"+u.key]; m != nil {
			u.out, u.fromMemo = m, true
			return
		}
	}
	i := u.items[0]
	ictx, sp := obs.StartSpan(ctx, "batch.item")
	var out evalOut
	out.value, out.err = runEval(ictx, items[i].Eval, prepared)
	u.out = &out
	if sp != nil {
		sp.SetAttr("index", items[i].Index)
		if n := len(u.items); n > 1 {
			sp.SetAttr("fanout", n)
		}
		if out.err != nil {
			sp.SetAttr("error", out.err.Error())
		}
		sp.End()
	}
}

// runEval runs one item's Eval with panic containment.
func runEval(ctx context.Context, eval func(context.Context, any) (any, error), prepared any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fault.Permanent.Wrap(fmt.Errorf("batch: item eval panicked: %v", r))
		}
	}()
	return eval(ctx, prepared)
}
