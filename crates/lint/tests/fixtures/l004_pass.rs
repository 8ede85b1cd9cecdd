// Fixture: the data-plane send shapes L004 must NOT flag.

fn ship(tx: &Sender<Message>, tuples: Vec<Tuple>, emitted_us: u64) {
    let weight = tuples.len() as u64;
    let _ = tx.send_weighted(Message::TupleBatch { emitted_us, tuples }, weight);
}

fn control(tx: &Sender<Message>) {
    // A plain send of a control marker is not a batch send.
    let _ = tx.send(Message::Shutdown);
    let _ = tx.send(Message::StatsRequest { interval: 0 });
    // Nor is a weightless one.
    let _ = tx.send_weighted(Message::Shutdown, 0);
}

fn annotated(tx: &Sender<Message>, tuples: Vec<Tuple>, emitted_us: u64) {
    // lint: allow(send, reason = "fixture: replay of an already-accounted
    // batch; weighting it again would double-bill the channel")
    let _ = tx.send(Message::TupleBatch { emitted_us, tuples });
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_send_plain() {
        let (tx, _rx) = channel(4);
        let _ = tx.send(Message::TupleBatch {
            emitted_us: 0,
            tuples: Vec::new(),
        });
    }
}
