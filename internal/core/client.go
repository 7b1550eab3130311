package core

import (
	"bytes"

	"farm/internal/fabric"
	"farm/internal/nvram"
	"farm/internal/proto"
)

// This file implements external clients (§3, §5.2): machines outside the
// FaRM configuration that talk to it with messages, not one-sided RDMA.
// Because these requests are served by CPUs, the classic lease technique
// applies: a member serves external requests only while it holds a valid
// configuration, and requests are blocked from the moment a machine
// suspects/learns of a reconfiguration until NEW-CONFIG-COMMIT ("At this
// point it starts blocking all external client requests" ... "All members
// now unblock previously blocked external client requests").

// clientReadReq asks a member to read an object on the client's behalf.
type clientReadReq struct {
	Token uint64
	Addr  proto.Addr
	Size  int
}

// clientUpdateReq asks a member to run a read-modify-write transaction on
// the client's behalf (value replaces the object's payload).
type clientUpdateReq struct {
	Token uint64
	Addr  proto.Addr
	Value []byte
}

// clientResp answers either request.
type clientResp struct {
	Token uint64
	Data  []byte
	Err   string
}

// Client is an external endpoint: its own NIC, no membership, message-only
// access.
type Client struct {
	ID  int
	c   *Cluster
	nic *fabric.NIC

	nextToken uint64
	waiters   map[uint64]func([]byte, error)
}

// NewClient attaches an external client to the fabric. Client ids live
// above the machine id space.
func (c *Cluster) NewClient() *Client {
	id := len(c.Machines) + 1000 + c.clients
	c.clients++
	cl := &Client{
		ID:      id,
		c:       c,
		nic:     c.Net.AddMachine(fabric.MachineID(id), nvram.NewStore()),
		waiters: make(map[uint64]func([]byte, error)),
	}
	deliver := func(resp *clientResp) {
		if w := cl.waiters[resp.Token]; w != nil {
			delete(cl.waiters, resp.Token)
			if resp.Err != "" {
				w(nil, ErrUnavailable)
				return
			}
			w(resp.Data, nil)
		}
	}
	cl.nic.SetMessageHandler(func(_ fabric.MachineID, msg interface{}) {
		// Members reply through their transport: one response per frame.
		if b, ok := msg.(*fabric.Batch); ok {
			for _, inner := range b.Msgs {
				if resp, ok := inner.(*clientResp); ok {
					deliver(resp)
				}
			}
		}
	})
	return cl
}

// Read asks member `server` for size bytes at addr.
func (cl *Client) Read(server int, addr proto.Addr, size int, cb func(data []byte, err error)) {
	cl.nextToken++
	cl.waiters[cl.nextToken] = cb
	cl.nic.Send(fabric.MachineID(server), &clientReadReq{Token: cl.nextToken, Addr: addr, Size: size})
}

// Update asks member `server` to transactionally overwrite addr's payload.
func (cl *Client) Update(server int, addr proto.Addr, value []byte, cb func(err error)) {
	cl.nextToken++
	cl.waiters[cl.nextToken] = func(_ []byte, err error) { cb(err) }
	cl.nic.Send(fabric.MachineID(server), &clientUpdateReq{Token: cl.nextToken, Addr: addr, Value: value})
}

// --- Member side ---

// blockClients starts queueing external requests (reconfiguration in
// sight, §5.2 steps 1 and 6).
func (m *Machine) blockClients() { m.clientsBlocked = true }

// unblockClients serves everything queued (step 7).
func (m *Machine) unblockClients() {
	m.clientsBlocked = false
	q := m.clientQueue
	m.clientQueue = nil
	for _, fn := range q {
		fn()
	}
}

// serveClient gates one request on the block state.
func (m *Machine) serveClient(fn func()) {
	if m.clientsBlocked {
		m.clientQueue = append(m.clientQueue, fn)
		return
	}
	fn()
}

// onClientRead serves a read on a worker thread. The response outlives the
// read's handler, so it carries a copy of the bytes read.
func (m *Machine) onClientRead(src int, req *clientReadReq) {
	m.serveClient(func() {
		m.LockFreeRead(0, req.Addr, req.Size, func(data []byte, err error) {
			resp := &clientResp{Token: req.Token}
			if err != nil {
				resp.Err = err.Error()
			} else {
				resp.Data = bytes.Clone(data)
			}
			m.sendToClient(src, resp)
		})
	})
}

// onClientUpdate runs the client's read-modify-write as coordinator.
func (m *Machine) onClientUpdate(src int, req *clientUpdateReq) {
	m.serveClient(func() {
		tx := m.Begin(0)
		tx.Read(req.Addr, len(req.Value), func(_ []byte, err error) {
			if err != nil {
				m.sendToClient(src, &clientResp{Token: req.Token, Err: err.Error()})
				return
			}
			tx.Write(req.Addr, req.Value)
			tx.Commit(func(err error) {
				resp := &clientResp{Token: req.Token}
				if err != nil {
					resp.Err = err.Error()
				}
				m.sendToClient(src, resp)
			})
		})
	})
}

// sendToClient replies over the message transport (clients are not
// members; precise membership does not apply to them, leases do — a
// machine that lost its configuration stops replying by virtue of being
// evicted and blocked).
func (m *Machine) sendToClient(dst int, msg interface{}) {
	m.send(dst, msg)
}
