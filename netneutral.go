// Package netneutral is the public facade of the netneutral project: a
// full implementation of the neutralizer design from "A Technical
// Approach to Net Neutrality" (Yang, Tsudik, Liu — HotNets-V, 2006).
//
// The design prevents an ISP from discriminating against packets based on
// content, application type, or non-customer addresses, while leaving
// tiered (DiffServ) service intact. Its core is the neutralizer: a
// stateless service at a supportive ISP's border that hides customer
// addresses behind an anycast address, deriving every session key on the
// fly as Ks = hash(KM, nonce, srcIP).
//
// This package re-exports the entry points a client in this repository
// uses (examples/quickstart, cmd/neutbench, the root tests); everything
// else lives in the internal packages (see README.md "Module layout"
// for the inventory) and is imported from there:
//
//   - NewNeutralizer, NewScratch: the border service and its per-worker
//     scratch (internal/core)
//   - NewKeySchedule: the shared master-key schedule (internal/crypto/keys)
//   - NewHost, NewIdentity: the end-host shim stack and its long-term key
//     pair (internal/endhost, internal/e2e)
//   - Experiments / ExperimentByID: the paper-reproduction harness (internal/eval)
//
// A minimal in-process conversation:
//
//	sched := netneutral.NewKeySchedule(root, time.Now(), time.Hour)
//	neut, _ := netneutral.NewNeutralizer(netneutral.NeutralizerConfig{
//	    Schedule:   sched,
//	    Anycast:    netip.MustParseAddr("10.200.0.1"),
//	    IsCustomer: func(a netip.Addr) bool { return custNet.Contains(a) },
//	})
//	scratch := netneutral.NewScratch() // one per goroutine
//	outs, err := neut.ProcessScratch(scratch, pkt) // stateless; run as many replicas as you like
//
// See examples/quickstart for the conversation end to end and
// cmd/neutbench for the evaluation harness.
package netneutral

import (
	"time"

	"netneutral/internal/core"
	"netneutral/internal/crypto/aesutil"
	"netneutral/internal/crypto/keys"
	"netneutral/internal/e2e"
	"netneutral/internal/endhost"
	"netneutral/internal/eval"
)

// Neutralizer is the stateless border service (the paper's primary
// contribution). See NeutralizerConfig for construction.
type Neutralizer = core.Neutralizer

// NeutralizerConfig configures a Neutralizer.
type NeutralizerConfig = core.Config

// NewNeutralizer creates a neutralizer instance. All replicas of a domain
// share the same KeySchedule, which is what makes the service anycastable
// and fault-tolerant.
func NewNeutralizer(cfg NeutralizerConfig) (*Neutralizer, error) { return core.New(cfg) }

// Scratch is per-worker reusable state for the zero-allocation
// processing path (Neutralizer.ProcessScratch). One per goroutine.
type Scratch = core.Scratch

// NewScratch creates an empty scratch; buffers grow on demand and are
// retained across Reset.
func NewScratch() *Scratch { return core.NewScratch() }

// KeySchedule derives per-epoch master keys KM from a root secret and
// session keys Ks = hash(KM, nonce, srcIP).
type KeySchedule = keys.Schedule

// MasterKey is a 128-bit symmetric key.
type MasterKey = aesutil.Key

// NewKeySchedule creates a schedule anchored at start; epochLen <= 0
// selects the paper's hourly rotation.
func NewKeySchedule(root MasterKey, start time.Time, epochLen time.Duration) *KeySchedule {
	return keys.NewSchedule(root, start, epochLen)
}

// Host is the end-host shim stack: key setup, hidden-destination data
// packets, grant refresh, reverse-direction initiation.
type Host = endhost.Host

// HostConfig configures a Host.
type HostConfig = endhost.Config

// NewHost creates an end host.
func NewHost(cfg HostConfig) (*Host, error) { return endhost.NewHost(cfg) }

// Identity is a long-term end-to-end key pair, published via DNS
// bootstrap records.
type Identity = e2e.Identity

// NewIdentity generates an identity (bits <= 0 selects the default
// 1024-bit strength the paper suggests).
func NewIdentity(bits int) (*Identity, error) { return e2e.NewIdentity(nil, bits) }

// Experiment is one registered paper-reproduction unit.
type Experiment = eval.Experiment

// Experiments returns every registered experiment (E1-E10, F1-F2, A1-A8 —
// `neutbench -list` prints the index; see README.md).
func Experiments() []Experiment { return eval.All() }

// ExperimentByID looks up an experiment by its index id (e.g. "E3").
func ExperimentByID(id string) (Experiment, bool) { return eval.ByID(id) }
