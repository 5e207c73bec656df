// Package poison holds the switch for ktree's discarded-node poison
// hook. It sits outside ktree so that a test in ktree's directory which
// must import one of ktree's importers (a protocol round) can flip it;
// Go's internal rule keeps every package outside internal/ktree away.
package poison

// Freed makes a tree blank every node and child slice the moment it
// joins the free list, so a holder that still reads one fails at once
// instead of when a later pass happens to recycle it. Tests set it;
// nothing else does.
var Freed bool
