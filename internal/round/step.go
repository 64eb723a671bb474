package round

import (
	"fmt"

	"repro/internal/uncertain"
)

// Phase names the coordinator-side phases of the §5.2 protocol loop.
type Phase int

// Protocol phases, in the paper's vocabulary.
const (
	// PhaseToServer covers the Init fan-out and every refill's admission;
	// a refill's wait is in the phase whose fan-out carried its request.
	PhaseToServer Phase = iota
	// PhaseFeedbackSelect covers the coordinator's candidate bookkeeping:
	// Corollary-2 bounds, the expunge sweep with its one fan-out per
	// standalone wave (admissions nest inside as PhaseToServer) and the
	// feedback selection.
	PhaseFeedbackSelect
	// PhaseServerDelivery covers the Evaluate broadcast round trips.
	PhaseServerDelivery
	// PhaseLocalPruning covers aggregating the sites' eq. 9 factors and
	// prune counts and settling the verdict (report or reject).
	PhaseLocalPruning
	// NumPhases sizes per-phase tables.
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseToServer:
		return "to-server"
	case PhaseFeedbackSelect:
		return "feedback-select"
	case PhaseServerDelivery:
		return "server-delivery"
	case PhaseLocalPruning:
		return "local-pruning"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists every phase in protocol order, for iteration.
func Phases() []Phase {
	return []Phase{PhaseToServer, PhaseFeedbackSelect, PhaseServerDelivery, PhaseLocalPruning}
}

// EventKind labels one step of the DSUD/e-DSUD protocol.
type EventKind int

// Protocol events, in the vocabulary of the paper's §4 phase names.
const (
	// EventToServer: a site shipped a representative to the coordinator.
	EventToServer EventKind = iota + 1
	// EventExpunge: e-DSUD discarded a queued tuple whose Corollary-2
	// bound fell below the threshold, without broadcasting it.
	EventExpunge
	// EventBroadcast: the coordinator broadcast a feedback tuple to the
	// other sites (Server-Delivery phase).
	EventBroadcast
	// EventPrune: sites discarded local skyline tuples in response to a
	// feedback broadcast (Local-Pruning phase); Count carries the total.
	EventPrune
	// EventReport: a tuple's exact global probability qualified and it
	// joined SKY(H).
	EventReport
	// EventReject: a broadcast tuple's exact global probability fell
	// short of the threshold.
	EventReject
	// EventRefill: the home site of a popped (broadcast or expunged)
	// tuple was asked for its next representative. Count is 1 when a
	// representative arrived (followed by its own EventToServer) and 0
	// when the site's local skyline is exhausted.
	EventRefill
	// EventFeedbackSelect: the coordinator picked the next feedback tuple
	// from its queue (for e-DSUD, the maximum Corollary-2 bound in G).
	// Prob carries the winning bound; exactly one per broadcast.
	EventFeedbackSelect
)

func (k EventKind) String() string {
	switch k {
	case EventToServer:
		return "to-server"
	case EventExpunge:
		return "expunge"
	case EventBroadcast:
		return "broadcast"
	case EventPrune:
		return "prune"
	case EventReport:
		return "report"
	case EventReject:
		return "reject"
	case EventRefill:
		return "refill"
	case EventFeedbackSelect:
		return "feedback-select"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one protocol step. Events exist for observability — logging,
// timing, teaching — and have no effect on the computation.
type Event struct {
	Kind EventKind
	// Iteration is the coordinator loop iteration (1-based; 0 for the
	// initial To-Server phase).
	Iteration int
	// Site is the home site of the tuple involved (-1 when not
	// applicable).
	Site int
	// Tuple is the tuple involved, when the event concerns one.
	Tuple uncertain.Tuple
	// Prob is the probability attached to the event: the local skyline
	// probability for to-server and broadcast, the Corollary-2 bound for
	// expunge and feedback-select, and the exact global probability for
	// report/reject.
	Prob float64
	// Count carries the pruned-tuple total for EventPrune.
	Count int
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case EventPrune:
		return fmt.Sprintf("[%03d] prune: %d local skyline tuples dropped", e.Iteration, e.Count)
	case EventRefill:
		if e.Count == 0 {
			return fmt.Sprintf("[%03d] refill site=%d exhausted", e.Iteration, e.Site)
		}
		return fmt.Sprintf("[%03d] refill site=%d", e.Iteration, e.Site)
	default:
		return fmt.Sprintf("[%03d] %s site=%d %s p=%.4g", e.Iteration, e.Kind, e.Site, e.Tuple, e.Prob)
	}
}

// StepKind says what a Step announces.
type StepKind uint8

// Step kinds.
const (
	// StepEvent: the protocol event in Step.Event happened, inside
	// Step.Phase.
	StepEvent StepKind = iota
	// StepBegin: Step.Phase opened, nested inside any phase still open
	// (only a refill's PhaseToServer ever nests, inside an expunge sweep).
	StepBegin
	// StepEnd: Step.Phase, the innermost open phase, closed; the phase it
	// was nested in, if any, resumes.
	StepEnd
)

// Step is one element of the engine's output stream — its only observer
// hook. Every event falls inside a phase and begins and ends balance, so
// a consumer can time phases, count rounds and attribute every delivery
// from the stream alone. A run that fails stops the stream where it
// stood, with the phases open at that moment left open.
type Step struct {
	Kind  StepKind
	Phase Phase
	Event Event
}

// Tally holds the protocol counters of one run.
type Tally struct {
	// Iterations counts coordinator loop iterations (feedback rounds).
	Iterations int
	// Broadcasts counts feedback tuples broadcast (each costs m−1 tuples).
	Broadcasts int
	// Expunged counts candidates e-DSUD discarded by the Corollary-2
	// bound without broadcasting (always 0 for DSUD and the Baseline).
	Expunged int
	// Refills counts requests issued to top a site's slot back up after
	// its representative was popped (broadcast or expunged): a Next, or
	// the Refill of an evaluate.
	Refills int
	// PrunedLocal sums local skyline tuples discarded by feedback pruning
	// across all sites.
	PrunedLocal int
}

// Observe folds one step into the tally. The engine counts this way
// itself, so a consumer that feeds Observe the whole stream holds, after
// every step, exactly the engine's own numbers.
func (t *Tally) Observe(s Step) {
	if s.Kind != StepEvent {
		if s.Kind == StepBegin && s.Phase == PhaseFeedbackSelect {
			t.Iterations++
		}
		return
	}
	switch s.Event.Kind {
	case EventBroadcast:
		t.Broadcasts++
	case EventExpunge:
		t.Expunged++
	case EventRefill:
		t.Refills++
	case EventPrune:
		t.PrunedLocal += s.Event.Count
	}
}
