package uq

// Model is a deterministic forward model mapping input parameters to output
// quantities of interest (for the paper: 12 wire elongations → wire
// temperatures at every time step).
type Model interface {
	// Dim returns the number of uncertain inputs.
	Dim() int
	// NumOutputs returns the number of outputs per evaluation.
	NumOutputs() int
	// Eval evaluates the model at params (length Dim) into out (length
	// NumOutputs). Eval must be safe for repeated calls on the same Model
	// instance; parallelism happens across instances.
	Eval(params, out []float64) error
}

// ModelFactory produces an independent model instance per parallel worker
// (e.g. a cloned simulator sharing the immutable mesh assembly).
type ModelFactory func() (Model, error)

// SingleFactory wraps one model for serial execution.
func SingleFactory(m Model) ModelFactory {
	return func() (Model, error) { return m, nil }
}
