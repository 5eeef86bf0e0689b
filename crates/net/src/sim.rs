//! The deterministic simnet backend.
//!
//! [`SimTransport`] clones share one in-process hub: a
//! `greenps_simnet::Network` plus the name⇄node maps. Every endpoint
//! adds a mailbox process to the network; `enqueue` injects the message
//! into the simulated event queue (which leaves `flush` nothing to do)
//! and `poll` advances virtual time (`Network::step`) until something
//! lands in this endpoint's mailbox or the network is quiescent.
//!
//! The backend is strictly cooperative and single-threaded (`Rc`
//! sharing, no `Send`), mirroring how the rest of the repo drives the
//! simulator. Sessions never reconnect here, so every session is
//! pinned at epoch 0 and the epoch fence is trivially satisfied — the
//! bit-identical discrete-event semantics the existing tests rely on
//! are untouched because the hub is just a thin veneer over
//! `Network::inject`/`Network::step`.

use crate::transport::{Endpoint, EndpointAddr, NetError, NetEvent, NodeName, Transport};
use greenps_simnet::{Context, Network, NodeId, Payload, Process};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

/// The hub shared by every endpoint of one simulated deployment.
struct SimShared<M> {
    net: Network<M>,
    by_name: HashMap<NodeName, NodeId>,
    by_id: HashMap<usize, NodeName>,
}

/// A mailbox process: parks every delivery for its endpoint to drain.
struct Mailbox<M> {
    inbox: Rc<RefCell<VecDeque<(NodeId, M)>>>,
}

impl<M: Payload + 'static> Process<M> for Mailbox<M> {
    fn on_message(&mut self, _ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        self.inbox.borrow_mut().push_back((from, msg));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The simnet transport factory. Clones share the same hub, so a test
/// can open several endpoints against one simulated network.
pub struct SimTransport<M> {
    shared: Rc<RefCell<SimShared<M>>>,
}

impl<M> Clone for SimTransport<M> {
    fn clone(&self) -> Self {
        Self {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<M: Payload + 'static> Default for SimTransport<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Payload + 'static> SimTransport<M> {
    /// An empty hub at virtual time zero.
    pub fn new() -> Self {
        Self {
            shared: Rc::new(RefCell::new(SimShared {
                net: Network::new(),
                by_name: HashMap::new(),
                by_id: HashMap::new(),
            })),
        }
    }
}

impl<M: Payload + Clone + 'static> Transport<M> for SimTransport<M> {
    type Endpoint = SimEndpoint<M>;

    fn open(&mut self, node: NodeName) -> Result<SimEndpoint<M>, NetError> {
        let mut shared = self.shared.borrow_mut();
        if shared.by_name.contains_key(&node) {
            return Err(NetError::Open(format!("sim node {node} already open")));
        }
        let inbox: Rc<RefCell<VecDeque<(NodeId, M)>>> = Rc::new(RefCell::new(VecDeque::new()));
        let id = shared.net.add_node(Mailbox {
            inbox: Rc::clone(&inbox),
        });
        shared.by_name.insert(node, id);
        shared.by_id.insert(id.0, node);
        drop(shared);
        Ok(SimEndpoint {
            shared: Rc::clone(&self.shared),
            name: node,
            id,
            inbox,
            pending: VecDeque::new(),
            down: false,
        })
    }
}

/// One node's attachment to the shared simulated network.
pub struct SimEndpoint<M> {
    shared: Rc<RefCell<SimShared<M>>>,
    name: NodeName,
    id: NodeId,
    inbox: Rc<RefCell<VecDeque<(NodeId, M)>>>,
    pending: VecDeque<NetEvent<M>>,
    down: bool,
}

impl<M: Payload + Clone + 'static> Endpoint<M> for SimEndpoint<M> {
    fn node(&self) -> NodeName {
        self.name
    }

    fn addr(&self) -> EndpointAddr {
        EndpointAddr::Sim(self.name)
    }

    fn connect(&mut self, addr: &EndpointAddr) -> Result<NodeName, NetError> {
        if self.down {
            return Err(NetError::Shutdown);
        }
        let EndpointAddr::Sim(name) = addr else {
            return Err(NetError::WrongAddrKind);
        };
        if !self.shared.borrow().by_name.contains_key(name) {
            return Err(NetError::Connect(format!("no sim node named {name}")));
        }
        // Only the dialing side observes the Session event on this
        // backend; deployments connect each edge from both ends.
        self.pending.push_back(NetEvent::Session {
            peer: *name,
            epoch: 0,
        });
        Ok(*name)
    }

    fn enqueue(&mut self, peer: NodeName, msg: &M) -> Result<(), NetError> {
        if self.down {
            return Err(NetError::Shutdown);
        }
        let mut shared = self.shared.borrow_mut();
        let Some(&to) = shared.by_name.get(&peer) else {
            return Err(NetError::UnknownPeer(peer));
        };
        let from = self.id;
        shared.net.inject(from, to, msg.clone());
        Ok(())
    }

    /// Nothing is ever queued here: `enqueue` has already injected.
    fn flush(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    fn poll(&mut self, _wait: Duration) -> Option<NetEvent<M>> {
        if self.down {
            return None;
        }
        if let Some(ev) = self.pending.pop_front() {
            return Some(ev);
        }
        loop {
            let popped = self.inbox.borrow_mut().pop_front();
            if let Some((from, msg)) = popped {
                let name = self.shared.borrow().by_id.get(&from.0).copied();
                match name {
                    Some(n) => return Some(NetEvent::Msg { from: n, msg }),
                    // Sender withdrew between delivery and drain; the
                    // message has no live session to belong to.
                    None => continue,
                }
            }
            // Virtual time only advances while someone polls: step the
            // discrete-event loop until this mailbox fills or the whole
            // network is idle.
            let stepped = self.shared.borrow_mut().net.step();
            if !stepped {
                return None;
            }
        }
    }

    fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        let mut shared = self.shared.borrow_mut();
        shared.net.kill_node(self.id);
        shared.by_name.remove(&self.name);
        shared.by_id.remove(&self.id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Note(u64);
    impl Payload for Note {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn sim_endpoints_exchange_messages() {
        let mut t: SimTransport<Note> = SimTransport::new();
        let mut a = t.open(1).unwrap();
        let mut b = t.open(2).unwrap();
        assert_eq!(a.connect(&b.addr()).unwrap(), 2);
        assert!(matches!(
            a.poll(Duration::ZERO),
            Some(NetEvent::Session { peer: 2, epoch: 0 })
        ));
        a.send(2, &Note(7)).unwrap();
        b.send(1, &Note(9)).unwrap();
        assert_eq!(
            b.poll(Duration::ZERO),
            Some(NetEvent::Msg {
                from: 1,
                msg: Note(7)
            })
        );
        assert_eq!(
            a.poll(Duration::ZERO),
            Some(NetEvent::Msg {
                from: 2,
                msg: Note(9)
            })
        );
        assert_eq!(a.poll(Duration::ZERO), None);
    }

    #[test]
    fn duplicate_names_and_unknown_peers_are_errors() {
        let mut t: SimTransport<Note> = SimTransport::new();
        let mut a = t.open(1).unwrap();
        assert!(matches!(t.open(1), Err(NetError::Open(_))));
        assert!(matches!(a.send(9, &Note(0)), Err(NetError::UnknownPeer(9))));
        assert!(matches!(
            a.connect(&EndpointAddr::Sim(9)),
            Err(NetError::Connect(_))
        ));
    }

    #[test]
    fn shutdown_fences_the_node() {
        let mut t: SimTransport<Note> = SimTransport::new();
        let mut a = t.open(1).unwrap();
        let mut b = t.open(2).unwrap();
        b.shutdown();
        assert!(matches!(a.send(2, &Note(1)), Err(NetError::UnknownPeer(2))));
        assert_eq!(b.poll(Duration::ZERO), None);
        assert!(matches!(b.send(1, &Note(1)), Err(NetError::Shutdown)));
    }
}
