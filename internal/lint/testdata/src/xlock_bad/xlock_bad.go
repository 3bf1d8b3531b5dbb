// Package xlock_bad holds a container stripe and calls into xlock_dep,
// which acquires a file stripe: a FileLocks-under-ContainerLocks
// inversion that only a cross-package, transitive call graph can see.
// TestCrossPackageInversion checks the engine reports both the one- and
// the two-frame chain.
package xlock_bad

import (
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/lint/testdata/src/xlock_dep"
)

type node struct {
	files  *core.FileLocks
	clocks *core.ContainerLocks
}

// inversionAcrossPackages acquires FileLocks via xlock_dep while a
// container stripe is held.
func (n *node) inversionAcrossPackages(id container.ID, file string) {
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
	xlock_dep.TouchFile(n.files, file) // BAD: FileLocks under ContainerLocks, one package away
}

// deepInversion is the same sin through two frames.
func (n *node) deepInversion(id container.ID, file string) {
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
	xlock_dep.TouchViaHelper(n.files, file) // BAD: two frames and a package boundary away
}

// orderedCaller is the negative control: hierarchy walked top-down, the
// same helper called with nothing below FileLocks held.
func (n *node) orderedCaller(id container.ID, file string) {
	xlock_dep.TouchFile(n.files, file)
	n.clocks.Lock(id)
	defer n.clocks.Unlock(id)
}
