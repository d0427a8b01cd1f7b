package apiconv

import (
	"etherm/api"
	"etherm/internal/surrogate"
)

// SurrogateQueryToInternal returns a copy of a wire surrogate query. Only
// the benchmark harness calls it.
func SurrogateQueryToInternal(q *api.SurrogateQuery) (surrogate.Query, error) {
	return *q, nil
}

// SurrogateAnswerToAPI returns a copy of a surrogate answer. Only the
// benchmark harness calls it.
func SurrogateAnswerToAPI(a *surrogate.Answer) (*api.SurrogateAnswer, error) {
	out := *a
	return &out, nil
}
