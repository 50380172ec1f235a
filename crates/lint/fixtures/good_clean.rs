// Fixture: idiomatic code following the invariant.  Must scan clean.

impl Broker {
    fn decode_list(&self, bytes: &[u8]) -> Vec<u8> {
        let count = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        Vec::with_capacity(count.min(bytes.len() / 4 + 1))
    }
}

#[cfg(test)]
mod tests {
    // Test code may size allocations by decoded counts freely.
    fn decode_fixture(bytes: &[u8]) -> Vec<u8> {
        let count = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        Vec::with_capacity(count)
    }
}
