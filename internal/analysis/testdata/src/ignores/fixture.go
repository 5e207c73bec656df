// Fixture for the lbvet:ignore directive machinery.
package ignores

import "p2plb/internal/ident"

// suppressed: a reasoned ignore on the preceding line covers this one.
func suppressed(a, b ident.ID) bool {
	//lbvet:ignore identcompare canonical total order, deliberately
	return a < b
}

// notSuppressed: an ignore without a reason suppresses nothing and is
// itself reported.
func notSuppressed(a, b ident.ID) bool {
	//lbvet:ignore identcompare
	return a < b
}

// staleName: an ignore naming an analyzer that is not registered (a
// renamed or deleted check) is itself reported, so annotations cannot
// silently rot.
func staleName(x int) int {
	//lbvet:ignore idcompare renamed long ago, this directive is stale
	return x + 1
}

// unused: a reasoned ignore over lines its analyzer does not flag
// suppresses nothing and is itself reported, so an annotation cannot
// outlive the code it excused.
func unused(a, b ident.ID) bool {
	//lbvet:ignore identcompare once excused a raw comparison, since rewritten
	return a == b
}

// otherAnalyzer: an ignore for an analyzer that did not run on this
// package is left alone, so `lbvet -run x` flags no other analyzer's
// annotations.
func otherAnalyzer(a, b ident.ID) bool {
	//lbvet:ignore detflow read only when detflow runs
	return a == b
}
