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

// perRoundDriver is a fixed-length process with a per-round reference drive.
type perRoundDriver interface {
	sim.Process
	Rounds() int
	broadcastPerRound(round int) sim.Message
}

// perRound drives a process through its per-round reference: Broadcast
// always reports round+1, so the engine never parks it, while the
// fixed-length and passive-receiver contracts are preserved.
type perRound struct{ inner perRoundDriver }

func (p perRound) Broadcast(r int) (sim.Message, int) { return p.inner.broadcastPerRound(r), r + 1 }
func (p perRound) Receive(r int, m sim.Message)       { p.inner.Receive(r, m) }
func (p perRound) Output() int                        { return p.inner.Output() }
func (p perRound) Done() bool                         { return p.inner.Done() }
func (p perRound) Rounds() int                        { return p.inner.Rounds() }
func (p perRound) PassiveReceive()                    {}

// bcastLog records each round's broadcaster set.
type bcastLog struct{ rounds [][]int }

func (l *bcastLog) OnRound(round int, broadcasters []int, _ []sim.Delivery) {
	l.rounds = append(l.rounds, append([]int(nil), broadcasters...))
}

// runFleet drives a fleet to completion and returns outputs + the log.
func runFleet(t *testing.T, net *dualgraph.Network, procs []sim.Process, b int) ([]int, *bcastLog) {
	t.Helper()
	log := &bcastLog{}
	r, err := sim.NewRunner(sim.Config{
		Net:         net,
		Adversary:   adversary.NewCollisionSeeking(net),
		Processes:   procs,
		MessageBits: b,
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

// TestSleepEquivalenceTauAndBaseline locks the sleeping Broadcast of the
// enumeration-based processes to their per-round reference drives:
// identical seeds must yield identical broadcaster sets every round and
// identical outputs, whether or not the engine skips sleeping processes.
// The instance is built like the harness's (one seeded stream for network,
// assignment, and detector, in that order).
func TestSleepEquivalenceTauAndBaseline(t *testing.T) {
	for _, tc := range []struct {
		name string
		tau  int
		make func(cfg CCDSConfig) (perRoundDriver, error)
	}{
		{"baseline", 0, func(cfg CCDSConfig) (perRoundDriver, error) {
			return NewBaselineCCDSProcess(cfg)
		}},
		{"tau1", 1, func(cfg CCDSConfig) (perRoundDriver, error) {
			return NewTauCCDSProcess(cfg, 1)
		}},
		{"tau2", 2, func(cfg CCDSConfig) (perRoundDriver, error) {
			return NewTauCCDSProcess(cfg, 2)
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
				const b = 1 << 16
				build := func(perRoundDrive bool) []sim.Process {
					procs := make([]sim.Process, n)
					for v := 0; v < n; v++ {
						id := asg.ID(v)
						p, err := tc.make(CCDSConfig{
							ID:       id,
							N:        n,
							Delta:    net.Delta(),
							B:        b,
							Detector: det.Set(v),
							Params:   DefaultParams(),
							Rng:      rand.New(rand.NewPCG(seed, uint64(id)*0x9e3779b97f4a7c15+0x1234567)),
						})
						if err != nil {
							t.Fatal(err)
						}
						if perRoundDrive {
							procs[v] = perRound{inner: p}
						} else {
							procs[v] = p
						}
					}
					return procs
				}
				sleepOuts, sleepLog := runFleet(t, net, build(false), b)
				plainOuts, plainLog := runFleet(t, net, build(true), b)
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
