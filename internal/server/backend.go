package server

import (
	"fmt"

	"nestedsg/internal/locking"
	"nestedsg/internal/mvto"
	"nestedsg/internal/object"
	"nestedsg/internal/spec"
	"nestedsg/internal/tname"
	"nestedsg/internal/undolog"
)

// BackendNames lists the selectable Options.Backend values.
func BackendNames() []string { return []string{"moss", "undolog", "mvto"} }

// ValidateBackendOptions checks the backend-related fields of opts without
// building a server — the CLIs' pre-flight, so an unknown -backend name is a
// clean error instead of a panic inside New.
func ValidateBackendOptions(opts Options) error {
	_, err := resolveProtocol(opts.withDefaults(), tname.NewTree())
	return err
}

// resolveProtocol returns the object protocol every automaton of the server
// is built by: the named Options.Backend, the injected Options.Protocol, or
// Moss locking. The tree must already exist (the MVTO clock binds to it).
func resolveProtocol(opts Options, tr *tname.Tree) (object.Protocol, error) {
	if opts.Backend != "" && opts.Protocol != nil {
		return nil, fmt.Errorf("server: Options.Backend %q and Options.Protocol %q are both set; pick one",
			opts.Backend, opts.Protocol.Name())
	}
	switch opts.Backend {
	case "":
		if opts.Protocol != nil {
			return opts.Protocol, nil
		}
		return locking.Protocol{}, nil
	case "moss":
		return locking.Protocol{}, nil
	case "undolog":
		return undolog.Protocol{}, nil
	case "mvto":
		if opts.DefaultSpec.Name() != (spec.Register{}).Name() {
			return nil, fmt.Errorf("server: backend %q supports only the register spec (DefaultSpec is %s)",
				opts.Backend, opts.DefaultSpec.Name())
		}
		return mvto.NewStrictProtocol(tr), nil
	default:
		return nil, fmt.Errorf("server: unknown backend %q (have %v)", opts.Backend, BackendNames())
	}
}

// restartReason is consulted after a failed grant poll, under the object's
// mutex and the tree read lock. A non-empty reason means the access can never
// be granted (an MVTO access that arrived too late in timestamp order, or any
// object implementing object.Aborter that says so), and the session must
// abort its top-level transaction — the classical restart — instead of
// parking.
func restartReason(g object.Generic, acc tname.TxID) string {
	if a, ok := g.(object.Aborter); ok && a.ShouldAbort(acc) {
		return "protocol restart: access arrived too late"
	}
	return ""
}
