package ctxflow

import "context"

// The long-running entry points this fixture models, mirroring the
// repo's Evaluate/EvaluateCtx convention.

type Env struct{}

func (e *Env) Evaluate(app string) (float64, error) {
	return e.EvaluateCtx(context.Background(), app)
}

func (e *Env) EvaluateCtx(ctx context.Context, app string) (float64, error) {
	for i := 0; i < 1000; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

func Sweep(points int) int { return points * 2 }

// helper buries a long-running call with no way to thread a context.
func helper(e *Env, app string) (float64, error) { return e.Evaluate(app) }

// Positive cases.

func severedCall(ctx context.Context, e *Env, app string) (float64, error) {
	return e.Evaluate(app) // want `calls Evaluate without the context; use EvaluateCtx`
}

func severedFunc(ctx context.Context, n int) int {
	return Sweep(n) // want `calls long-running Sweep without the context; thread ctx`
}

func severedChain(ctx context.Context, e *Env, app string) (float64, error) {
	return helper(e, app) // want `calls helper, whose call chain reaches long-running work, without the context`
}

// uncancellableLoop manufactures a fresh context per iteration — the
// call has a ctx argument, so it is not a severed call, but the loop
// as a whole can never be cancelled.
func uncancellableLoop(ctx context.Context, e *Env, apps []string) (float64, error) {
	var total float64
	for _, app := range apps { // want `loop makes long-running calls with no cancellation point`
		v, err := e.EvaluateCtx(context.Background(), app)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// severedInLoop reaches a manufactured context before a severed call.
// The severed call is reported; the loop that holds it is not reported
// a second time, whichever call the loop's walk reaches first.
func severedInLoop(ctx context.Context, e *Env, apps []string) (float64, error) {
	var total float64
	for _, app := range apps {
		v, err := e.EvaluateCtx(context.Background(), app)
		if err != nil {
			return 0, err
		}
		w, err := e.Evaluate(app) // want `calls Evaluate without the context; use EvaluateCtx`
		if err != nil {
			return 0, err
		}
		total += v + w
	}
	return total, nil
}

// Negative cases.

func threaded(ctx context.Context, e *Env, app string) (float64, error) {
	return e.EvaluateCtx(ctx, app) // ctx propagated: ok
}

func cancellableLoop(ctx context.Context, e *Env, apps []string) (float64, error) {
	var total float64
	for _, app := range apps {
		v, err := e.EvaluateCtx(ctx, app) // ctx inside the loop: ok
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// selectInLoop checks stop in a select on every iteration: the select
// is the loop's cancellation point, so the manufactured context inside
// it is not reported.
func selectInLoop(ctx context.Context, e *Env, apps []string, stop <-chan struct{}) (float64, error) {
	var total float64
	for _, app := range apps {
		select {
		case <-stop:
			return total, nil
		default:
		}
		v, err := e.EvaluateCtx(context.Background(), app)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// wrappedSelectInLoop is selectInLoop with the select inside a
// function literal called in the loop: still a cancellation point.
func wrappedSelectInLoop(ctx context.Context, e *Env, apps []string, stop <-chan struct{}) (float64, error) {
	var total float64
	for _, app := range apps {
		stopped := false
		func() {
			select {
			case <-stop:
				stopped = true
			default:
			}
		}()
		if stopped {
			return total, nil
		}
		v, err := e.EvaluateCtx(context.Background(), app)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func noCtxParam(e *Env, app string) (float64, error) {
	return e.Evaluate(app) // nothing to propagate: ok
}

func shortLoop(ctx context.Context, xs []int) int {
	sum := 0
	for _, x := range xs { // no long-running calls: ok
		sum += x
	}
	return sum
}

func suppressed(ctx context.Context, e *Env, app string) (float64, error) {
	//rampvet:ignore ctxflow -- fire-and-forget warmup, cancellation is deliberate non-goal
	return e.Evaluate(app)
}
