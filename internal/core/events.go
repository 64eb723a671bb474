package core

import "repro/internal/round"

// The protocol vocabulary — phases, events, per-site tallies — belongs to
// the round engine, which emits it; core and dsq re-export it so callers
// name one package.
type (
	// Phase names one coordinator-side phase of the §5.2 protocol loop.
	Phase = round.Phase
	// EventKind labels one step of the DSUD/e-DSUD protocol.
	EventKind = round.EventKind
	// Event is one protocol step, delivered synchronously to
	// Options.OnEvent.
	Event = round.Event
	// SiteTally is one site's slice of a query's cost.
	SiteTally = round.SiteTally
)

// Protocol phases and events; internal/round documents each.
const (
	PhaseToServer       = round.PhaseToServer
	PhaseFeedbackSelect = round.PhaseFeedbackSelect
	PhaseServerDelivery = round.PhaseServerDelivery
	PhaseLocalPruning   = round.PhaseLocalPruning
	numPhases           = round.NumPhases

	EventToServer       = round.EventToServer
	EventExpunge        = round.EventExpunge
	EventBroadcast      = round.EventBroadcast
	EventPrune          = round.EventPrune
	EventReport         = round.EventReport
	EventReject         = round.EventReject
	EventRefill         = round.EventRefill
	EventFeedbackSelect = round.EventFeedbackSelect
)

// Phases lists every phase in protocol order, for iteration.
func Phases() []Phase { return round.Phases() }
