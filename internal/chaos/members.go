package chaos

import (
	"fmt"

	"seoracle/internal/core"
)

// FailMembers simulates member-body decode failures on a loaded multi
// index: the named members are removed (core's ShardedIndex.Without) and
// returned as a quarantine list, exactly as if their container bodies had
// failed their CRCs in a degraded load — the global id space, portals and
// coarse routing stay, and ids owned by a failed member answer as
// quarantined. The on-disk file is untouched — this rehearses degraded
// serving (503s for quarantined members, /readyz quorum) without corrupting
// anything. Unknown names and non-multi indexes are errors: an operator
// asking to fail a member that does not exist is holding the wrong flag.
func FailMembers(idx core.DistanceIndex, names []string) (core.DistanceIndex, []core.Quarantined, error) {
	if len(names) == 0 {
		return idx, nil, nil
	}
	sh, ok := idx.(*core.ShardedIndex)
	if !ok {
		return nil, nil, fmt.Errorf("chaos: cannot fail members of a single %s index", idx.Stats().Kind)
	}
	var quarantined []core.Quarantined
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		m, ok := sh.Member(n)
		if !ok {
			return nil, nil, fmt.Errorf("chaos: no member named %q to fail (members: %v)", n, sh.MemberNames())
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		quarantined = append(quarantined, core.Quarantined{
			Name: m.Name,
			Kind: m.Index.Stats().Kind,
			BBox: m.BBox,
			Err:  fmt.Errorf("chaos: injected member decode failure"),
		})
	}
	out, err := sh.Without(names...)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: failing %v: %w", names, err)
	}
	return out, quarantined, nil
}
