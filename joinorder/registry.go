package joinorder

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Optimizer is the common shape of every join-ordering strategy: given a
// validated query and options, produce the best plan the strategy can find
// before the context ends. Implementations must honor the context's end —
// an anytime strategy returns its incumbent with StatusTimeLimit at a
// deadline and StatusCanceled at a cancel; one without a plan returns
// ErrCanceled, or ErrNoPlan when Budget.TimeLimit ran out.
type Optimizer interface {
	// Name is the registry key, as accepted by Options.Strategy.
	Name() string
	// Description is a one-line summary for help output.
	Description() string
	// Optimize runs the strategy. The query and options have already
	// been validated when dispatched through the package-level Optimize.
	Optimize(ctx context.Context, q *Query, opts Options) (*Result, error)
}

// DefaultStrategy is the registry key used when Options.Strategy is empty.
const DefaultStrategy = "milp"

var registry = struct {
	sync.RWMutex
	m map[string]Optimizer
}{m: map[string]Optimizer{}}

// Register adds a strategy to the registry, making it reachable through
// Optimize and the -strategy flag of cmd/joinopt. Registering an empty
// name or a duplicate is an error.
func Register(o Optimizer) error {
	name := o.Name()
	if name == "" {
		return fmt.Errorf("%w: empty strategy name", ErrInvalidOptions)
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		return fmt.Errorf("%w: strategy %q already registered", ErrInvalidOptions, name)
	}
	registry.m[name] = o
	return nil
}

// Lookup resolves a strategy name (empty means DefaultStrategy).
func Lookup(name string) (Optimizer, error) {
	if name == "" {
		name = DefaultStrategy
	}
	registry.RLock()
	o, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (available: %v)", ErrUnknownStrategy, name, Strategies())
	}
	return o, nil
}

// Strategies lists the registered strategy names, sorted.
func Strategies() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of a registered strategy
// (empty string for unknown names).
func Describe(name string) string {
	registry.RLock()
	defer registry.RUnlock()
	if o, ok := registry.m[name]; ok {
		return o.Description()
	}
	return ""
}

// strategy adapts a plain function to the Optimizer interface; the
// built-in strategies are all registered this way.
type strategy struct {
	name string
	desc string
	fn   func(ctx context.Context, q *Query, opts Options) (*Result, error)
}

func (s strategy) Name() string        { return s.name }
func (s strategy) Description() string { return s.desc }

// Optimize runs the strategy with Budget.TimeLimit as a deadline on its
// context: the one place the budget becomes a clock, so every layer below
// stops on its context alone.
func (s strategy) Optimize(ctx context.Context, q *Query, opts Options) (*Result, error) {
	if opts.Budget.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, opts.Budget.TimeLimit, errTimeLimit)
		defer cancel()
	}
	return s.fn(ctx, q, opts)
}

// errTimeLimit is the cause of the deadline strategy.Optimize derives from
// Budget.TimeLimit; it tells a run out of its own budget from one whose
// caller's context ended.
var errTimeLimit = errors.New("time budget ran out")

// ended maps how ctx ended onto a run that stops now; every built-in
// strategy ends by this one rule. While ctx is live, status stands and err
// is nil. Once it ended, a deadline, Budget.TimeLimit's or the caller's,
// gives StatusTimeLimit and a cancel StatusCanceled, but a proof stands:
// StatusOptimal stays StatusOptimal. err is what a run holding no plan
// returns: ErrNoPlan when Budget.TimeLimit ran out, ErrCanceled when the
// caller's context ended.
func ended(ctx context.Context, status Status) (Status, error) {
	cerr := ctx.Err()
	if cerr == nil {
		return status, nil
	}
	if status != StatusOptimal {
		status = StatusCanceled
		if errors.Is(cerr, context.DeadlineExceeded) {
			status = StatusTimeLimit
		}
	}
	if context.Cause(ctx) == errTimeLimit {
		return status, fmt.Errorf("%w: %w", ErrNoPlan, errTimeLimit)
	}
	return status, fmt.Errorf("%w: %w", ErrCanceled, cerr)
}

// mustRegister backs the built-in init registrations, where a duplicate
// means a programming error in this package, not caller input.
func mustRegister(name, desc string, fn func(context.Context, *Query, Options) (*Result, error)) {
	if err := Register(strategy{name: name, desc: desc, fn: fn}); err != nil {
		panic(err)
	}
}
