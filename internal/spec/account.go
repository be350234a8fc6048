package spec

import (
	"fmt"
	"math/rand"
)

// Account is Weihl's bank-account type: deposits always succeed, withdrawals
// succeed only when the balance suffices (returning true/false), and balance
// reads the current amount. Its backward-commutativity structure is the
// standard subtle example:
//
//   - (deposit, OK) commutes with (deposit, OK);
//   - (withdraw a, true) commutes with (withdraw b, true): whenever both
//     succeed in one order from some state they succeed in the other and the
//     final balances agree;
//   - (withdraw, false) commutes with (withdraw, false) and with
//     (balance, v) — a failed withdrawal does not change state and its
//     failure is implied by the observed balance;
//   - (deposit, OK) conflicts with (withdraw, true), (withdraw, false) and
//     (balance, v): moving a deposit across any of them can change whether
//     the other's return value is legal;
//   - (withdraw, true) conflicts with (withdraw, false) and (balance, v).
//
// These entries are validated against the definition by exhaustive
// equieffectiveness checks in the package tests.
type Account struct{}

// Name implements Spec.
func (Account) Name() string { return "account" }

// Init implements Spec.
func (Account) Init() State { return int64(0) }

// Apply implements Spec.
func (Account) Apply(s State, op Op) (State, Value) {
	bal := s.(int64)
	switch op.Kind {
	case OpDeposit:
		return bal + op.Arg.Int, OK
	case OpWithdraw:
		if bal >= op.Arg.Int {
			return bal - op.Arg.Int, Bool(true)
		}
		return bal, Bool(false)
	case OpBalance:
		return s, Int(bal)
	default:
		panic(fmt.Sprintf("account: unsupported op %s", op))
	}
}

// Conflicts implements Spec; see the type comment for the derivation.
func (Account) Conflicts(a, b OpVal) bool {
	return accountConflict(a, b) || accountConflict(b, a)
}

func accountConflict(a, b OpVal) bool {
	switch a.Op.Kind {
	case OpDeposit:
		// Deposits commute only with deposits.
		return b.Op.Kind != OpDeposit
	case OpWithdraw:
		if a.Val.AsBool() {
			// Successful withdrawal: commutes with successful withdrawals
			// and deposits... no: conflicts with deposit (handled from the
			// deposit side), conflicts with failed withdrawal and balance.
			switch b.Op.Kind {
			case OpWithdraw:
				return !b.Val.AsBool()
			case OpBalance:
				return true
			default:
				return false
			}
		}
		// Failed withdrawal: state unchanged; commutes with failed
		// withdrawals and balance, conflicts with everything that can
		// raise the balance past the threshold or drop it below.
		switch b.Op.Kind {
		case OpWithdraw:
			return b.Val.AsBool()
		default:
			return false
		}
	case OpBalance:
		// Balance commutes with balance and failed withdrawals.
		switch b.Op.Kind {
		case OpWithdraw:
			return b.Val.AsBool()
		default:
			return false
		}
	default:
		return true
	}
}

// ConflictsWithAll implements Spec: every operation commutes with another of its own kind and outcome.
func (Account) ConflictsWithAll(OpVal) bool { return false }

// Encode implements Spec.
func (Account) Encode(s State) string { return fmt.Sprintf("%d", s.(int64)) }

// RandOp implements Spec: deposit-heavy with occasional withdrawals and
// balance checks, over small amounts so failures occur.
func (Account) RandOp(r *rand.Rand) Op {
	switch r.Intn(5) {
	case 0:
		return Op{Kind: OpBalance}
	case 1, 2:
		return Op{Kind: OpWithdraw, Arg: Int(int64(1 + r.Intn(6)))}
	default:
		return Op{Kind: OpDeposit, Arg: Int(int64(1 + r.Intn(6)))}
	}
}

// ReadOnly implements Spec.
//
// Withdraw is classified as an update even when it fails: a locking object
// cannot know the outcome before serializing the access.
func (Account) ReadOnly(op Op) bool { return op.Kind == OpBalance }
