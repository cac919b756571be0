package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dualradio/internal/adversary"
	"dualradio/internal/detector"
	"dualradio/internal/dualgraph"
	"dualradio/internal/gen"
	"dualradio/internal/sim"
)

// broadcastPerRound is the baseline process's per-round reference drive:
// the MIS subroutine's wake round is dropped and the enumeration draws its
// coin through broadcastRound every round, so no round is ever skipped.
func (p *BaselineCCDSProcess) broadcastPerRound(round int) sim.Message {
	misTotal := p.mis.Rounds()
	if round < misTotal {
		m, _ := p.mis.Broadcast(round)
		return m
	}
	if !p.enterSearch(round) {
		return nil
	}
	return p.enum.broadcastRound(round - misTotal)
}

// broadcastPerRound is the τ-CCDS process's per-round reference drive (see
// BaselineCCDSProcess.broadcastPerRound).
func (p *TauCCDSProcess) broadcastPerRound(round int) sim.Message {
	misPhase := p.iterations * p.misTotal
	if round < misPhase {
		local := round % p.misTotal
		inner := p.iterationInner(local)
		if inner == nil {
			return nil
		}
		msg, _ := inner.Broadcast(local)
		p.noteWin(round)
		return msg
	}
	if !p.enterSearch(round) {
		return nil
	}
	return p.enum.broadcastRound(round - misPhase)
}

// broadcastPerRound is the banned-list CCDS's per-round reference drive:
// wake rounds are dropped, so phases 1 and 2 run every round (their silent
// rounds touch no randomness), and phase 3 flips its slot coin every round
// and never sleeps, the schedule's behavior before its phase-3 sleeps.
func (p *CCDSProcess) broadcastPerRound(round int) sim.Message {
	if round >= p.sched.mis.total && round < p.sched.total {
		if _, phase, off := p.sched.locate(round - p.sched.mis.total); phase == phaseExplore {
			coin := p.cfg.Rng.Float64() < 0.5
			slot := off / p.sched.bb
			switch {
			case slot == 0:
				if p.inMIS && p.nomFrom != 0 && coin {
					return newSelect(p.cfg.N, p.cfg.ID, p.nomFrom, p.nomCand)
				}
			case slot == 1:
				if !p.inMIS && len(p.selected) > 0 && coin {
					return p.buildQuery()
				}
			case slot < 2+p.sched.chunks:
				if !p.inMIS && len(p.queried) > 0 && coin {
					return p.buildRespond(slot - 2)
				}
			default:
				if !p.inMIS && len(p.relays) > 0 && coin {
					return p.buildRelay(slot - 2 - p.sched.chunks)
				}
			}
			return nil
		}
	}
	m, _ := p.Broadcast(round)
	return m
}

// broadcastPerRound is the continuous process's per-round reference drive:
// it drops the inner run's wake and drives the inner per-round reference
// every round.
func (p *ContinuousCCDSProcess) broadcastPerRound(round int) sim.Message {
	local := round % p.period
	if local == 0 {
		p.beginPeriod(round)
	}
	if p.inner == nil {
		return nil
	}
	return p.inner.broadcastPerRound(local)
}

// perRoundDriver is a process with a per-round reference drive.
type perRoundDriver interface {
	sim.Process
	broadcastPerRound(round int) sim.Message
}

// perRound drives a process through its per-round reference: Broadcast
// always reports round+1, so the engine never parks it.
type perRound struct{ inner perRoundDriver }

func (p perRound) Broadcast(r int) (sim.Message, int) { return p.inner.broadcastPerRound(r), r + 1 }
func (p perRound) Receive(r int, m sim.Message)       { p.inner.Receive(r, m) }
func (p perRound) Output() int                        { return p.inner.Output() }
func (p perRound) Done() bool                         { return p.inner.Done() }

// perRoundFixed is perRound for a fixed-length process: forwarding Rounds
// lets the engine retire it exactly where it retires the sleeping drive.
type perRoundFixed struct {
	perRound
	rounds int
}

func (p perRoundFixed) Rounds() int { return p.rounds }

// bcastLog records each round's broadcaster set.
type bcastLog struct{ rounds [][]int }

func (l *bcastLog) OnRound(round int, broadcasters []int, _ []sim.Delivery) {
	l.rounds = append(l.rounds, append([]int(nil), broadcasters...))
}

// runFleet drives a fleet to completion (or for maxRounds rounds, when
// positive) and returns outputs + the log.
func runFleet(t *testing.T, net *dualgraph.Network, procs []sim.Process, b, maxRounds int) ([]int, *bcastLog) {
	t.Helper()
	log := &bcastLog{}
	r, err := sim.NewRunner(sim.Config{
		Net:         net,
		Adversary:   adversary.NewCollisionSeeking(net),
		Processes:   procs,
		MessageBits: b,
		MaxRounds:   maxRounds,
		Observer:    log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	outs := make([]int, len(procs))
	for v, p := range procs {
		outs[v] = p.Output()
	}
	return outs, log
}

// TestSleepEquivalenceTauAndBaseline locks the sleeping Broadcast of every
// process that sleeps through coin-flipping rounds — the enumeration-based
// processes, the banned-list CCDS (phase 3), and the continuous CCDS that
// reruns it — to its per-round reference drive: identical seeds must yield
// identical broadcaster sets every round and identical outputs, whether or
// not the engine skips sleeping processes. refExecution in internal/sim
// honors declared wakes, so it cannot see a sleep that burns the wrong
// number of coins or wakes at the wrong round; this comparison can. The
// instance is built like the harness's (one seeded stream for network,
// assignment, and detector, in that order). The continuous case runs two
// periods plus the commit round under a detector that has τ=2 mistakes
// until the first period boundary and is 0-complete from there on.
func TestSleepEquivalenceTauAndBaseline(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tau     int
		b       int
		periods int // > 0: continuous CCDS, run for this many periods
		make    func(cfg CCDSConfig, at func(round int) *detector.Set) (perRoundDriver, error)
	}{
		{"baseline", 0, 1 << 16, 0, func(cfg CCDSConfig, _ func(int) *detector.Set) (perRoundDriver, error) {
			return NewBaselineCCDSProcess(cfg)
		}},
		{"tau1", 1, 1 << 16, 0, func(cfg CCDSConfig, _ func(int) *detector.Set) (perRoundDriver, error) {
			return NewTauCCDSProcess(cfg, 1)
		}},
		{"tau2", 2, 1 << 16, 0, func(cfg CCDSConfig, _ func(int) *detector.Set) (perRoundDriver, error) {
			return NewTauCCDSProcess(cfg, 2)
		}},
		// b=192 needs two chunks per response, so phase 3 has two respond
		// and two relay slots.
		{"ccds", 0, 192, 0, func(cfg CCDSConfig, _ func(int) *detector.Set) (perRoundDriver, error) {
			return NewCCDSProcess(cfg)
		}},
		{"continuous", 0, 512, 2, func(cfg CCDSConfig, at func(int) *detector.Set) (perRoundDriver, error) {
			return NewContinuousCCDSProcess(ContinuousConfig{
				ID: cfg.ID, N: cfg.N, Delta: cfg.Delta, B: cfg.B,
				DetectorAt: at, Params: cfg.Params, Rng: cfg.Rng,
			})
		}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				const n = 64
				rng := rand.New(rand.NewPCG(seed, 0x5EED))
				net, err := gen.RandomGeometric(gen.GeometricConfig{N: n}, rng)
				if err != nil {
					t.Fatal(err)
				}
				asg := dualgraph.RandomAssignment(n, rng)
				det := detector.Complete(net, asg)
				if tc.tau > 0 {
					det = detector.TauComplete(net, asg, tc.tau, detector.PlaceGrayFirst, rng)
				}
				dyn := detector.Dynamic(detector.NewStatic(det))
				maxRounds := 0
				if tc.periods > 0 {
					period, err := CCDSRounds(n, net.Delta(), tc.b, DefaultParams())
					if err != nil {
						t.Fatal(err)
					}
					noisy := detector.TauComplete(net, asg, 2, detector.PlaceGrayFirst, rng)
					dyn = detector.NewSchedule(
						detector.ScheduleStep{Round: 0, Detector: noisy},
						detector.ScheduleStep{Round: period, Detector: det},
					)
					maxRounds = tc.periods*period + 1
				}
				build := func(perRoundDrive bool) []sim.Process {
					procs := make([]sim.Process, n)
					for v := 0; v < n; v++ {
						id := asg.ID(v)
						node := v
						p, err := tc.make(CCDSConfig{
							ID:       id,
							N:        n,
							Delta:    net.Delta(),
							B:        tc.b,
							Detector: det.Set(v),
							Params:   DefaultParams(),
							Rng:      rand.New(rand.NewPCG(seed, uint64(id)*0x9e3779b97f4a7c15+0x1234567)),
						}, func(round int) *detector.Set { return dyn.At(round).Set(node) })
						if err != nil {
							t.Fatal(err)
						}
						switch fixed, ok := p.(interface{ Rounds() int }); {
						case !perRoundDrive:
							procs[v] = p
						case ok:
							procs[v] = perRoundFixed{perRound{p}, fixed.Rounds()}
						default:
							procs[v] = perRound{p}
						}
					}
					return procs
				}
				sleepOuts, sleepLog := runFleet(t, net, build(false), tc.b, maxRounds)
				plainOuts, plainLog := runFleet(t, net, build(true), tc.b, maxRounds)
				if len(sleepLog.rounds) != len(plainLog.rounds) {
					t.Fatalf("round counts differ: sleep %d vs per-round %d",
						len(sleepLog.rounds), len(plainLog.rounds))
				}
				for r := range plainLog.rounds {
					sr, pr := sleepLog.rounds[r], plainLog.rounds[r]
					if len(sr) != len(pr) {
						t.Fatalf("round %d: broadcasters differ: sleep %v vs per-round %v", r, sr, pr)
					}
					for i := range sr {
						if sr[i] != pr[i] {
							t.Fatalf("round %d: broadcasters differ: sleep %v vs per-round %v", r, sr, pr)
						}
					}
				}
				for v := range plainOuts {
					if sleepOuts[v] != plainOuts[v] {
						t.Fatalf("node %d: output %d (sleep) vs %d (per-round)", v, sleepOuts[v], plainOuts[v])
					}
				}
			})
		}
	}
}
