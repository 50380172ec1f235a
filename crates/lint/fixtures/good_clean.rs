// Fixture: idiomatic code following every invariant.  Must scan clean.

impl Broker {
    fn announce(&self, target: BrokerId, message: Message) {
        self.send_sequenced(target, message);
    }

    fn decode_list(&self, bytes: &[u8]) -> Vec<u8> {
        let count = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        Vec::with_capacity(count.min(bytes.len() / 4 + 1))
    }

    fn build_state() -> State {
        State {
            peers: Mutex::with_class("fixture.peers", Vec::new()),
            routes: RwLock::with_class("fixture.routes", HashMap::new()),
        }
    }

    fn deadline(&self) -> Deadline {
        crate::clock::Deadline::after(Duration::from_millis(50))
    }
}

#[cfg(test)]
mod tests {
    // Test code may use raw clocks and unclassed locks freely.
    fn spin_until() {
        let started = Instant::now();
        let gate = Mutex::new(());
        drop(gate);
        drop(started);
    }
}
