// Fixture: the data-plane send shapes L004 must NOT flag.

fn ship(tx: &Sender<Message>, batch: Vec<Tuple>) {
    let weight = batch.len() as u64;
    let _ = tx.send_weighted(Message::TupleBatch(batch), weight);
}

fn control(tx: &Sender<Message>) {
    // Control markers legitimately weigh one.
    let _ = tx.send(Message::Shutdown);
    let _ = tx.send(Message::StatsRequest { interval: 0 });
}

fn annotated(tx: &Sender<Message>, batch: Vec<Tuple>) {
    // lint: allow(send, reason = "fixture: replay of an already-accounted
    // batch; weighting it again would double-bill the channel")
    let _ = tx.send(Message::TupleBatch(batch));
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_send_plain() {
        let (tx, _rx) = channel(4);
        let _ = tx.send(Message::TupleBatch(Vec::new()));
    }
}
