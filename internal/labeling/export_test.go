package labeling

import (
	"context"

	"compact/internal/ilp"
)

// MIPModel builds the full Eq. 4 model MethodMIP hands the branch & bound.
func MIPModel(ctx context.Context, p Problem, opts Options) (*ilp.Model, error) {
	m := eq4Model(p, opts)
	_, _, err := m.addOCTRows(ctx, p, opts)
	return m.mod, err
}
