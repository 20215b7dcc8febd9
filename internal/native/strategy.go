package native

// Strategy is a one-valued stub. The engine has exactly one execution
// schedule — the dependency-counter subtree DAG of grain.go/schedule.go —
// and this type, StrategyAuto, Options.Strategy, Stats.Strategy and
// Stats.Levels survive only as names the frozen benchmark/ source
// spells; the benchmark's next revision removes them.
type Strategy int

const (
	StrategySubtree Strategy = 0
	StrategyAuto             = StrategySubtree
)

func (Strategy) String() string { return "subtree" }
