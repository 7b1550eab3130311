package proto

// This file defines the typed message-handler registry that replaces
// per-receiver type switches: each transported message type is registered
// once with its Table 2 (or infrastructure) name, an optional wire-size
// model, and a typed handler. Counter names are precomputed at
// registration so the receive hot path never builds strings.

import "reflect"

// DefaultMsgSize is the modeled wire size of a small fixed-shape control
// message: transport headers plus a few payload words. Messages with
// variable payloads register an explicit size model.
const DefaultMsgSize = 64

// Handler is one registered message handler. Fn is nil for send-only
// registrations (message types a machine emits but never receives, e.g.
// client responses); such messages still get wire-size accounting on the
// send side, and count as unknown if one ever arrives at a machine.
type Handler struct {
	// Name is the protocol-vocabulary name, e.g. "LOCK-REPLY".
	Name string
	// RecvCounter / SentCounter / BytesCounter are the precomputed counter
	// keys ("msg NAME", "sent NAME", "wire NAME").
	RecvCounter  string
	SentCounter  string
	BytesCounter string

	// RecvCell / SentCell / BytesCell are pre-resolved counter cells the
	// transport installs after registration (stats.Counters.Cell), so the
	// per-message hot paths bump a pointer instead of hashing the name.
	RecvCell  *uint64
	SentCell  *uint64
	BytesCell *uint64

	// Fn dispatches a received message (src is the sender machine id).
	Fn func(src int, msg interface{})
	// Size models the message's wire size in bytes (nil: DefaultMsgSize).
	Size func(msg interface{}) int
}

// SizeOf returns the modeled wire size of msg.
func (h *Handler) SizeOf(msg interface{}) int {
	if h == nil || h.Size == nil {
		return DefaultMsgSize
	}
	return h.Size(msg)
}

// Registry maps concrete message types to their handlers. Each Machine
// builds one at startup; lookups are single map hits keyed by dynamic
// type.
type Registry struct {
	handlers map[reflect.Type]*Handler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{handlers: make(map[reflect.Type]*Handler)}
}

// Register installs fn as the handler for messages of T's concrete type.
// size may be nil (DefaultMsgSize); fn may be nil for send-only types.
// Registering the same type twice panics: exactly one owner per message
// type is the point of the registry.
func Register[T any](r *Registry, name string, size func(T) int, fn func(src int, msg T)) {
	var zero T
	t := reflect.TypeOf(zero)
	if t == nil {
		panic("proto: Register needs a concrete (pointer) message type")
	}
	if _, dup := r.handlers[t]; dup {
		panic("proto: duplicate handler for " + t.String())
	}
	h := &Handler{
		Name:         name,
		RecvCounter:  "msg " + name,
		SentCounter:  "sent " + name,
		BytesCounter: "wire " + name,
	}
	if fn != nil {
		h.Fn = func(src int, msg interface{}) { fn(src, msg.(T)) }
	}
	if size != nil {
		h.Size = func(msg interface{}) int { return size(msg.(T)) }
	}
	r.handlers[t] = h
}

// Lookup returns the handler registered for msg's concrete type, or nil.
func (r *Registry) Lookup(msg interface{}) *Handler {
	return r.handlers[reflect.TypeOf(msg)]
}

// Handles reports whether msg's type has a receive handler (a send-only
// registration does not count).
func (r *Registry) Handles(msg interface{}) bool {
	h := r.Lookup(msg)
	return h != nil && h.Fn != nil
}

// Len returns the number of registered types.
func (r *Registry) Len() int { return len(r.handlers) }

// Each calls fn for every registered handler (iteration order is
// unspecified). The transport uses it to pre-resolve counter cells.
func (r *Registry) Each(fn func(h *Handler)) {
	for _, h := range r.handlers {
		fn(h)
	}
}

// WireMessages returns one sample value of every top-level message type
// this package defines for the reliable transport. The registry-
// completeness test asserts a machine registers a handler for each.
func WireMessages() []interface{} {
	return []interface{}{
		// Transaction protocol (Table 2).
		&LockReply{}, &ValidateReq{}, &ValidateReply{},
		// Transaction state recovery (§5.3).
		&NeedRecovery{}, &FetchTxState{}, &SendTxState{},
		&ReplicateTxState{}, &ReplicateTxStateAck{},
		&RecoveryVote{}, &RequestVote{},
		&CommitRecovery{}, &AbortRecovery{},
		&RecoveryDecisionAck{}, &TruncateRecovery{},
		// Leases over the reliable transport (LeaseRPC variant, §5.1).
		&LeaseRequest{}, &LeaseGrant{},
		// Reconfiguration (§5.2).
		&NewConfig{}, &NewConfigAck{}, &NewConfigCommit{},
		&RegionsActive{}, &AllRegionsActive{}, &BlockHeaderResp{},
		&BlockHeaderReq{},
		// Region allocation (§3).
		&AllocRegionReq{}, &AllocRegionPrepare{}, &AllocRegionPrepared{},
		&AllocRegionCommit{}, &MappingReq{}, &MappingResp{},
		// State-integrity auditing.
		&AuditSnap{}, &AuditSnapReply{}, &AuditObjectsReq{},
		&AuditObjectsReply{}, &AuditRepair{}, &AuditRepairDone{},
	}
}
