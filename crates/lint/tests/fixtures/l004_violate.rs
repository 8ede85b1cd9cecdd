// Fixture: TupleBatch sends that escape the data plane's channel bound.

fn ship(tx: &Sender<Message>, batch: Vec<Tuple>) {
    let _ = tx.send(Message::TupleBatch(batch));
}

fn ship_nb(tx: &Sender<Message>, batch: Vec<Tuple>) {
    let _ = tx.try_send(Message::TupleBatch(batch));
}

fn ship_weightless(tx: &Sender<Message>, batch: Vec<Tuple>) {
    let _ = tx.send_weighted(Message::TupleBatch(batch), 0);
}
