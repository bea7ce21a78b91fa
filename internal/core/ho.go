package core

import (
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/vargraph"
)

// OptimalHeight returns the minimal plan height for q over the whole
// plan space. By Theorem 4.3 CliqueSquare-MSC is HO-partial — it always
// produces at least one height-optimal plan — so the minimum over MSC's
// (small) plan space is the optimum. That holds only for the whole MSC
// space, so the run has no budget: a cut run could miss every
// height-optimal plan and return a taller height silently. MSC never
// fails to find a plan for a valid connected query, so the result is
// well defined.
func OptimalHeight(q *sparql.Query) (int, error) {
	res, err := Optimize(q, Options{Method: vargraph.MSC})
	if err != nil {
		return 0, err
	}
	return res.MinHeight(), nil
}
