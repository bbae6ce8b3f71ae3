package assignment

// TopHEager is TopH with lazy evaluation disabled: every child subproblem
// is solved when it is created. The external tests time it beside TopH.
func (g *Graph) TopHEager(h int) []Solution { return g.topH(h, false) }
