// Fixture: TupleBatch sends that escape the data plane's channel bound.

fn ship(tx: &Sender<Message>, tuples: Vec<Tuple>, emitted_us: u64) {
    let _ = tx.send(Message::TupleBatch { emitted_us, tuples });
}

fn ship_nb(tx: &Sender<Message>, tuples: Vec<Tuple>, emitted_us: u64) {
    let _ = tx.try_send(Message::TupleBatch { emitted_us, tuples });
}

fn ship_weightless(tx: &Sender<Message>, tuples: Vec<Tuple>, emitted_us: u64) {
    let _ = tx.send_weighted(Message::TupleBatch { emitted_us, tuples }, 0);
}
