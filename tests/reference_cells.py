"""An id-based reference for `prepare_cell`: splits as sets of tweet ids and
records looked up one id at a time, as cells were prepared before they
became corpus positions."""

from claimcheck.augment import (BT, CWE, back_translate, contextual_substitute,
                                generate_samples, synthetic_record)


def reference_cell(corpus, holdouts, target, shots, strategy=None,
                   providers=None, seed=0):
    """(train ids, test ids, synthetic records) of one cell: train and test
    ids sorted, the synthetic records in pool order."""
    pool = holdouts.pool(target)
    train = {r.tweet_id for r in corpus.records if r.topic_id != target}
    train |= set(pool[:shots])
    test = {r.tweet_id for r in corpus.records_for(target)} - set(pool)
    synthetic = []
    if strategy is not None:
        seeds = [corpus.record(i) for i in pool[:shots]]
        if strategy == BT:
            result = back_translate(seeds, providers.translator)
        elif strategy == CWE:
            result = contextual_substitute(seeds, providers.filler, seed)
        else:
            result = generate_samples(seeds, providers.generator)
        by_id = {r.tweet_id: r for r in seeds}
        synthetic = [synthetic_record(s, by_id[s.origin_tweet_id])
                     for s in result.samples]
    return sorted(train), sorted(test), synthetic
