//! A broadcast's shared signature remembers the check it passed, but only
//! for the statement (here, the epoch view) it was checked over, and the
//! sender is compared on every copy. So a signature that one recipient accepted and that then reaches
//! another recipient under another epoch view, or from another sender, is
//! refused there exactly as a forged one would be.
//!
//! Run for the three pacemakers that pool epoch-view messages through
//! `EpochMsgs`: Lumiere, Basic Lumiere and LP22.

use lumiere::core::certs::{epoch_view_digest, wish_digest};
use lumiere::prelude::*;
use lumiere::types::view::EpochLayout;

const NOW: Time = Time::from_millis(1);

fn refused_everywhere(kind: ProtocolKind, layout: fn(&Params) -> EpochLayout) {
    let params = Params::new(4, Duration::from_millis(10));
    let (keys, pki) = keygen(4, 1);
    let build = |who: usize| {
        let mut pacemaker = kind.build_pacemaker(params, keys[who].clone(), pki.clone(), 5);
        pacemaker.boot(Time::ZERO);
        pacemaker
    };
    let (sender, other) = (keys[0].id(), keys[3].id());
    let layout = layout(&params);
    let (v0, v1) = (
        layout.first_view(Epoch::new(1)),
        layout.first_view(Epoch::new(2)),
    );
    let msg = PacemakerMessage::EpochViewMsg {
        view: v0,
        signature: keys[0].sign(epoch_view_digest(v0)).into(),
    };
    let PacemakerMessage::EpochViewMsg { signature, .. } = &msg else {
        unreachable!()
    };

    // One recipient accepts it, so its shared signature holds a success.
    let mut first = build(1);
    let before = first.state_entries();
    first.on_message(sender, &msg, NOW);
    assert_eq!(first.state_entries(), before + 1, "{kind:?}: accepted");

    // The other recipient, beside a twin that is handed a message none of
    // these pacemakers reads.
    let (mut recipient, mut twin) = (build(2), build(2));
    let unread = PacemakerMessage::Wish {
        view: v0,
        signature: keys[3].sign(wish_digest(v0)),
    };
    let moved_view = PacemakerMessage::EpochViewMsg {
        view: v1,
        signature: signature.clone(),
    };
    for (from, moved) in [(sender, &moved_view), (other, &msg)] {
        let refused = recipient.on_message(from, moved, NOW);
        assert_eq!(refused, twin.on_message(from, &unread, NOW), "{kind:?}");
        assert_eq!(recipient.state_entries(), twin.state_entries(), "{kind:?}");
    }

    // The pool counted neither: the genuine copy still counts as new.
    let before = recipient.state_entries();
    let accepted = recipient.on_message(sender, &msg, NOW);
    assert_eq!(accepted, twin.on_message(sender, &msg, NOW), "{kind:?}");
    assert_eq!(recipient.state_entries(), before + 1, "{kind:?}");
    assert_eq!(recipient.state_entries(), twin.state_entries(), "{kind:?}");
}

#[test]
fn lumiere_refuses_a_moved_epoch_view_signature() {
    refused_everywhere(ProtocolKind::Lumiere, Params::lumiere_epoch_layout);
}

#[test]
fn basic_lumiere_refuses_a_moved_epoch_view_signature() {
    refused_everywhere(
        ProtocolKind::BasicLumiere,
        Params::basic_lumiere_epoch_layout,
    );
}

#[test]
fn lp22_refuses_a_moved_epoch_view_signature() {
    refused_everywhere(ProtocolKind::Lp22, Params::lp22_epoch_layout);
}
