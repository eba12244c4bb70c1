"""The one seam through which tests observe an engine's messages."""

from mpcsyn.rss import Mpc3Engine


def message_log(eng, payloads: bool = False) -> list[tuple]:
    """The messages ``eng`` sends from now on, as a list that fills in
    sending order: (round, scope, sender, receiver, bytes) per message,
    parties numbered from 1 and bytes the size of the array sent, which
    is appended as a copy when ``payloads`` is set. It stays empty on
    ``PlainEngine``, which sends nothing.

    Wraps ``Mpc3Engine._send``, the one place a message is tallied, so
    the sizes here are measured apart from the transcript's count.
    """
    log: list[tuple] = []
    if not isinstance(eng, Mpc3Engine):
        return log
    send = eng._send

    def spy(sender, receiver, arr):
        rec = (eng.transcript.rounds, eng.scope_name, sender + 1, receiver + 1, arr.nbytes)
        log.append(rec + (arr.copy(),) if payloads else rec)
        return send(sender, receiver, arr)

    eng._send = spy
    return log
