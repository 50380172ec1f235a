// Fixture: an instance of the banned pattern suppressed by a well-formed
// `lint:allow(rule, reason)`.  Must scan clean.

impl Broker {
    fn decode_trusted(&self, bytes: &[u8]) -> Vec<u8> {
        let count = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        // lint:allow(unchecked-capacity, count is validated against a signed manifest above)
        let out = Vec::with_capacity(count);
        out
    }
}
